"""Structured tracing: lightweight spans emitted from measured intervals.

A **span** is one named, wall-clock-anchored interval of work (a batch
serve, a worker forward, a codec decode, a store load) tagged with a
``trace_id`` that joins every span of one request together; its
``process`` says where the work ran (``"server"`` or a worker id).

There is one way to make a span: time the work as the code already does,
then hand the measured interval over after the fact with
:meth:`Tracer.emit`.  A span is never a second clock around the work.
Emitters branch on :func:`tracing_enabled` (one module-level flag) and
skip all span work when it is off, so disabled tracing costs a single
branch with no allocation.

Timestamps are **wall clock** (``time.time()``), so exported spans line
up with other logs; durations are measured with ``perf_counter`` for
resolution, and an instant on it is placed on the wall clock by its
offset from an anchor taken on both.  No span crosses a process
boundary: a worker reports the intervals it measured in its reply's
stats, and the server emits the worker's spans from them
(:mod:`repro.serving.server`).

Collected spans live in a thread-safe ring buffer (:class:`Tracer`) and
export through :mod:`repro.obs.export` (JSONL and Chrome-trace/Perfetto).
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import threading
import time

TRACE_SCHEMA_VERSION = 1
# Spans a tracer retains before the oldest fall off.
TRACE_CAPACITY = 65536

_SPAN_COUNTER = itertools.count(1)


def new_span_id() -> str:
    """A process-unique span id (pid-prefixed, so the ids of two
    processes' exports never collide)."""
    return f"{os.getpid():x}-{next(_SPAN_COUNTER):x}"


@dataclasses.dataclass
class SpanRecord:
    """One finished span: a named interval on a process/thread timeline."""

    name: str                          # dotted taxonomy, e.g. "batch.gather"
    trace_id: int | str | None         # joins all spans of one request
    span_id: str
    parent_id: str | None
    process: str                       # "server" or the worker id
    thread: str                        # recording thread's name
    ts: float                          # wall-clock start (unix seconds)
    duration_s: float
    attrs: dict = dataclasses.field(default_factory=dict)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


class Tracer:
    """Thread-safe ring-buffered span collector for one process.

    The ring bound (``TRACE_CAPACITY`` spans) keeps a long-lived traced
    server from growing without limit — the oldest spans fall off,
    exactly like the serving telemetry ring buffer.
    """

    def __init__(self):
        self.capacity = TRACE_CAPACITY
        self._lock = threading.Lock()
        self._spans: list[SpanRecord] = []
        self._start = 0                # ring: index of the oldest span

    # -- recording ------------------------------------------------------
    def emit(self, name: str, trace_id=None, span_id: str | None = None,
             parent_id: str | None = None, ts: float | None = None,
             duration_s: float = 0.0, process: str | None = None,
             thread: str | None = None, attrs: dict | None = None,
             ) -> SpanRecord:
        """Record one already-measured span.

        The only emission path: the serving loop and the store turn
        durations they measure anyway (gather, fusion, per-request
        queueing, a worker's reported forward, a checkpoint load) into
        spans without timing anything twice.
        """
        record = SpanRecord(
            name=name, trace_id=trace_id,
            span_id=span_id or new_span_id(), parent_id=parent_id,
            process=process or "server",
            thread=thread if thread is not None
            else threading.current_thread().name,
            ts=time.time() if ts is None else ts,
            duration_s=duration_s, attrs=dict(attrs or {}))
        self.record(record)
        return record

    def record(self, record: SpanRecord) -> None:
        with self._lock:
            if len(self._spans) < self.capacity:
                self._spans.append(record)
            else:                      # ring: overwrite the oldest
                self._spans[self._start] = record
                self._start = (self._start + 1) % self.capacity

    # -- inspection -----------------------------------------------------
    def spans(self) -> list[SpanRecord]:
        """All retained spans, oldest first."""
        with self._lock:
            return self._spans[self._start:] + self._spans[:self._start]

    def drain(self) -> list[SpanRecord]:
        """Return all retained spans and clear the buffer."""
        with self._lock:
            out = self._spans[self._start:] + self._spans[:self._start]
            self._spans = []
            self._start = 0
            return out

    def clear(self) -> None:
        self.drain()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


# ----------------------------------------------------------------------
# Global tracer: one switch for the whole process.  Hot paths branch on
# ``tracing_enabled()`` (a module-global read) and skip all span work when
# it is off.
_enabled = False
_tracer = Tracer()


def enable_tracing() -> Tracer:
    """Turn on span collection; returns the fresh global tracer."""
    global _enabled, _tracer
    _tracer = Tracer()
    _enabled = True
    return _tracer


def disable_tracing() -> None:
    """Turn span collection off (already-collected spans stay readable)."""
    global _enabled
    _enabled = False


def tracing_enabled() -> bool:
    return _enabled


def get_tracer() -> Tracer:
    """The global tracer (its buffer survives :func:`disable_tracing`)."""
    return _tracer
