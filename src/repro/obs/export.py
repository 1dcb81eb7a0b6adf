"""Span exporters: JSONL log and Chrome trace-event (Perfetto) JSON.

Two consumers, two shapes:

* :func:`write_jsonl` — one self-describing JSON object per line
  (``schema_version`` + wall-clock ``started_at`` on every line), the
  machine-ingestion format for offline analysis and the future gateway
  rollup;
* :func:`chrome_trace` / :func:`write_chrome_trace` — the Chrome
  trace-event format (``{"traceEvents": [...]}`` with ``ph: "X"``
  complete events), which https://ui.perfetto.dev and
  ``chrome://tracing`` open directly.  Each span's originating process
  ("server", "w0", ...) becomes a named process track and each recording
  thread a named thread track, so one request's timeline reads
  enqueue → batch → worker forward → gather → fusion across tracks.
"""

from __future__ import annotations

import json
from typing import Iterable

from .trace import SpanRecord, TRACE_SCHEMA_VERSION


def jsonl_lines(spans: Iterable[SpanRecord]) -> list[str]:
    """Render spans as JSONL lines (no trailing newlines).

    Every line carries ``schema_version`` and ``started_at`` (the span's
    wall-clock start, unix seconds) so lines remain interpretable when
    split from the file and correlatable across processes.
    """
    lines = []
    for record in spans:
        data = record.to_dict()
        data["schema_version"] = TRACE_SCHEMA_VERSION
        data["started_at"] = record.ts
        # allow_nan=False: a NaN duration must fail here, not ship as the
        # bare `NaN` token that json.loads in stricter readers rejects.
        lines.append(json.dumps(data, sort_keys=True, default=str,
                                allow_nan=False))
    return lines


def write_jsonl(spans: Iterable[SpanRecord], path: str) -> int:
    """Write spans to ``path`` as JSONL; returns the number of lines."""
    lines = jsonl_lines(spans)
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")
    return len(lines)


def chrome_trace(spans: Iterable[SpanRecord]) -> dict:
    """Spans as a Chrome trace-event ``{"traceEvents": [...]}`` dict.

    Timestamps are microseconds relative to the earliest span (Perfetto
    renders absolute unix-epoch µs poorly), with the absolute anchor
    preserved in ``otherData.started_at``.
    """
    records = list(spans)
    events: list[dict] = []
    pids: dict[str, int] = {}
    tids: dict[tuple[str, str], int] = {}
    t_zero = min((r.ts for r in records), default=0.0)

    for record in records:
        pid = pids.get(record.process)
        if pid is None:
            pid = pids[record.process] = len(pids) + 1
            events.append({"ph": "M", "name": "process_name", "pid": pid,
                           "tid": 0,
                           "args": {"name": record.process}})
        thread_key = (record.process, record.thread)
        tid = tids.get(thread_key)
        if tid is None:
            tid = tids[thread_key] = \
                sum(1 for k in tids if k[0] == record.process) + 1
            events.append({"ph": "M", "name": "thread_name", "pid": pid,
                           "tid": tid,
                           "args": {"name": record.thread or "main"}})
        args = {"trace_id": record.trace_id, "span_id": record.span_id,
                "parent_id": record.parent_id}
        args.update(record.attrs)
        events.append({
            "ph": "X",
            "name": record.name,
            "cat": record.name.split(".", 1)[0],
            "pid": pid,
            "tid": tid,
            "ts": round((record.ts - t_zero) * 1e6, 3),
            "dur": round(record.duration_s * 1e6, 3),
            "args": args,
        })

    return {"traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"schema_version": TRACE_SCHEMA_VERSION,
                          "started_at": t_zero,
                          "span_count": len(records)}}


def write_chrome_trace(spans: Iterable[SpanRecord], path: str) -> int:
    """Write a Perfetto-openable trace JSON; returns the span count."""
    trace = chrome_trace(spans)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace, fh, default=str, allow_nan=False)
    return trace["otherData"]["span_count"]
