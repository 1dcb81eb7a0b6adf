"""Exporter tests: JSONL shape and Chrome trace-event (Perfetto) JSON."""

import json

import pytest

from repro.obs import (
    SpanRecord,
    TRACE_SCHEMA_VERSION,
    chrome_trace,
    jsonl_lines,
    write_chrome_trace,
    write_jsonl,
)


def make_spans():
    return [
        SpanRecord(name="batch.serve", trace_id=1, span_id="a", parent_id=None,
                   process="server", thread="serve", ts=100.0,
                   duration_s=0.02, attrs={"requests": 2}),
        SpanRecord(name="worker.forward", trace_id=1, span_id="b",
                   parent_id="a", process="w0", thread="MainThread",
                   ts=100.005, duration_s=0.01, attrs={}),
        SpanRecord(name="batch.fusion", trace_id=1, span_id="c",
                   parent_id="a", process="server", thread="serve",
                   ts=100.016, duration_s=0.003, attrs={}),
    ]


class TestJsonl:
    def test_every_line_is_stamped(self):
        lines = jsonl_lines(make_spans())
        assert len(lines) == 3
        for line, span in zip(lines, make_spans()):
            data = json.loads(line)
            assert data["schema_version"] == TRACE_SCHEMA_VERSION
            assert data["started_at"] == span.ts
            assert data["name"] == span.name
            assert data["trace_id"] == span.trace_id

    def test_write_roundtrip(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        count = write_jsonl(make_spans(), str(path))
        assert count == 3
        lines = path.read_text().strip().splitlines()
        assert [json.loads(line)["span_id"] for line in lines] == \
            ["a", "b", "c"]


class TestChromeTrace:
    def test_structure(self):
        trace = chrome_trace(make_spans())
        events = trace["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        meta = [e for e in events if e["ph"] == "M"]
        assert len(complete) == 3
        process_names = {e["args"]["name"] for e in meta
                         if e["name"] == "process_name"}
        assert process_names == {"server", "w0"}
        assert trace["otherData"]["span_count"] == 3
        assert trace["otherData"]["schema_version"] == TRACE_SCHEMA_VERSION
        assert trace["otherData"]["started_at"] == 100.0

    def test_timestamps_normalized_to_microseconds(self):
        trace = chrome_trace(make_spans())
        by_name = {e["name"]: e for e in trace["traceEvents"]
                   if e["ph"] == "X"}
        assert by_name["batch.serve"]["ts"] == 0.0
        assert by_name["worker.forward"]["ts"] == \
            pytest.approx(5000.0, abs=0.5)
        assert by_name["batch.serve"]["dur"] == \
            pytest.approx(20000.0, abs=0.5)

    def test_args_carry_identity_and_attrs(self):
        trace = chrome_trace(make_spans())
        serve = next(e for e in trace["traceEvents"]
                     if e.get("name") == "batch.serve" and e["ph"] == "X")
        assert serve["args"]["span_id"] == "a"
        assert serve["args"]["requests"] == 2
        assert serve["cat"] == "batch"

    def test_processes_get_distinct_pids(self):
        trace = chrome_trace(make_spans())
        pids = {e["pid"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert len(pids) == 2

    def test_write_is_valid_json(self, tmp_path):
        path = tmp_path / "trace.json"
        assert write_chrome_trace(make_spans(), str(path)) == 3
        with open(path, encoding="utf-8") as fh:
            loaded = json.load(fh)
        assert loaded["displayTimeUnit"] == "ms"
        assert len(loaded["traceEvents"]) >= 3

    def test_empty_input(self):
        trace = chrome_trace([])
        assert trace["traceEvents"] == []
        assert trace["otherData"]["span_count"] == 0
