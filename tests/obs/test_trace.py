"""Tracing unit tests: spans, their dict form, ring buffer, global switch."""

import json
import threading

import pytest

from repro.obs import trace
from repro.obs import (
    SpanRecord,
    TRACE_SCHEMA_VERSION,
    Tracer,
    disable_tracing,
    enable_tracing,
    get_tracer,
    jsonl_lines,
    new_span_id,
    tracing_enabled,
)


@pytest.fixture(autouse=True)
def _tracing_off():
    """Every test starts and ends with tracing disabled."""
    disable_tracing()
    yield
    disable_tracing()


class TestSpanIds:
    def test_unique_and_pid_prefixed(self):
        import os
        ids = {new_span_id() for _ in range(100)}
        assert len(ids) == 100
        assert all(i.startswith(f"{os.getpid():x}-") for i in ids)


class TestGlobalSwitch:
    def test_enable_returns_fresh_tracer(self):
        first = enable_tracing()
        first.emit("a")
        second = enable_tracing()
        assert second is get_tracer() and second is not first
        assert len(second) == 0 and len(first) == 1

    def test_disable_keeps_spans_readable(self):
        enable_tracing()
        get_tracer().emit("kept")
        disable_tracing()
        assert not tracing_enabled()
        assert [s.name for s in get_tracer().spans()] == ["kept"]


class TestEmit:
    def test_records_the_given_measurement(self):
        tracer = Tracer()
        attrs = {"samples": 2}
        record = tracer.emit("batch.fuse", trace_id=7, span_id="s-9",
                             parent_id="s-1", ts=1234.5, duration_s=0.125,
                             process="w1", thread="t", attrs=attrs)
        assert tracer.spans() == [record]
        assert (record.name, record.trace_id, record.span_id,
                record.parent_id) == ("batch.fuse", 7, "s-9", "s-1")
        assert (record.process, record.thread) == ("w1", "t")
        assert record.ts == 1234.5 and record.duration_s == 0.125
        attrs["samples"] = 99                # the span keeps its own copy
        assert record.attrs == {"samples": 2}

    def test_thread_defaults_to_the_emitting_thread(self):
        tracer = Tracer()
        worker = threading.Thread(target=lambda: tracer.emit("a"),
                                  name="emitter-1")
        worker.start()
        worker.join()
        assert [s.thread for s in tracer.spans()] == ["emitter-1"]

    def test_concurrent_emits_are_all_kept(self):
        tracer = Tracer()
        barrier = threading.Barrier(4)

        def emit_many(i):
            barrier.wait()
            for j in range(200):
                tracer.emit(f"t{i}", attrs={"j": j})

        threads = [threading.Thread(target=emit_many, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        spans = tracer.spans()
        assert len(spans) == 800
        assert len({s.span_id for s in spans}) == 800
        for i in range(4):                   # each thread's order survives
            assert [s.attrs["j"] for s in spans if s.name == f"t{i}"] == \
                list(range(200))


class TestRecordDict:
    def test_record_roundtrips_through_its_dict(self):
        record = Tracer().emit("worker.decode", trace_id="r-3",
                               parent_id="s-1", duration_s=0.5,
                               process="w2", attrs={"bytes": 10})
        (line,) = jsonl_lines([record])
        data = json.loads(line)
        assert data.pop("schema_version") == TRACE_SCHEMA_VERSION
        assert data.pop("started_at") == record.ts
        assert data == record.to_dict()
        assert SpanRecord(**data) == record


class TestRingBuffer:
    def test_overflow_drops_oldest(self, monkeypatch):
        monkeypatch.setattr(trace, "TRACE_CAPACITY", 3)
        tracer = Tracer()
        for i in range(5):
            tracer.emit(f"s{i}")
        assert [s.name for s in tracer.spans()] == ["s2", "s3", "s4"]

    def test_wrapped_ring_drains_oldest_first_and_refills(self, monkeypatch):
        monkeypatch.setattr(trace, "TRACE_CAPACITY", 2)
        tracer = Tracer()
        for i in range(3):
            tracer.emit(f"s{i}")
        assert [s.name for s in tracer.drain()] == ["s1", "s2"]
        tracer.emit("s3")
        assert [s.name for s in tracer.spans()] == ["s3"]

    def test_drain_empties_buffer(self):
        tracer = Tracer()
        tracer.emit("a")
        tracer.emit("b")
        assert [s.name for s in tracer.drain()] == ["a", "b"]
        assert len(tracer) == 0 and tracer.spans() == []

    def test_emit_defaults(self):
        tracer = Tracer()
        record = tracer.emit("x")
        assert record.process == "server"
        assert record.span_id and record.parent_id is None
        assert record.ts > 0 and record.duration_s == 0.0
