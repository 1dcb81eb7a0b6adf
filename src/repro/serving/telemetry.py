"""One record per served batch, and the statistics read off it.

:class:`repro.serving.InferenceServer` books each batch once, when it
completes, as one frozen :class:`BatchRecord`: dispatch, scatter, each
worker reply's stage intervals, gather, fusion, the slots answered
without features and the outcome.  The rest is read off that record:
each request's :class:`RequestTelemetry` keeps only what differs per
request plus the record's slim :class:`BatchSummary`, the server's
counters read its outcome, and :func:`emit_spans` draws every span of
the batch.  :class:`ServingReport` aggregates a run's request records
into throughput, p50/p95/p99 latency, and per-worker health — the
numbers a serving dashboard would plot.
"""

from __future__ import annotations

import dataclasses
import operator
from typing import Iterable, Sequence

import numpy as np

from ..obs.trace import new_span_id

# Version stamp on every exported report dict; bump on breaking shape
# changes so downstream consumers of `repro serve --json` can dispatch.
SERVING_SCHEMA_VERSION = 1


def percentile(values: Sequence[float], q: float) -> float | None:
    """Linear-interpolated percentile (``q`` in [0, 100]); None when empty.

    An empty window has no percentile — returning ``None`` (not NaN)
    keeps aggregate reports JSON-serializable: ``json.dumps`` renders
    ``None`` as ``null`` but emits the non-standard token ``NaN`` for
    ``float("nan")``, which breaks downstream parsers of the CLI's
    machine-readable output.
    """
    if not len(values):
        return None
    return float(np.percentile(values, q))


def _round(value: float | None, digits: int, scale: float = 1.0):
    """Scale+round for display/json rows; passes ``None`` through."""
    if value is None:
        return None
    return round(value * scale, digits)


@dataclasses.dataclass(frozen=True, slots=True)
class BatchSummary:
    """What every request of one batch shares (durations in seconds).

    The server's ring of request records keeps one alive per batch, so it
    holds no arrays, futures or reply dicts.  A batch that failed keeps
    its dispatch values and zeroes the rest; one never dispatched keeps
    only ``completed_at``.
    """

    dispatched_at: float = 0.0         # perf_counter; 0.0: never dispatched
    completed_at: float = 0.0
    batch_requests: int = 0            # requests coalesced into the batch
    batch_samples: int = 0             # images in it
    gather_s: float = 0.0              # scatter -> last feature delivered
    fusion_s: float = 0.0              # fusion forward
    emulated_compute_s: float = 0.0    # critical-path worker compute
    emulated_transfer_s: float = 0.0   # critical-path feature transfer
    bytes_out: int = 0                 # input bytes scattered to workers
    bytes_in: int = 0                  # encoded feature bytes gathered
    degraded: bool = False             # zero-filled features were used
    workers_down: tuple[str, ...] = ()


def _shared(name: str) -> property:
    """A :class:`RequestTelemetry` attribute its batch's summary holds."""
    return property(operator.attrgetter(f"batch.{name}"))


def _apportioned(name: str) -> property:
    """A byte count of the batch, apportioned to each of its requests by
    the request's share of the batch's samples."""
    def share(telemetry: RequestTelemetry) -> int:
        batch = telemetry.batch
        return int(round(getattr(batch, name) * (
            telemetry.num_samples / max(batch.batch_samples, 1))))
    return property(share)


@dataclasses.dataclass(slots=True)
class RequestTelemetry:
    """Latency breakdown for one served request (all durations seconds).

    It stores what differs per request; what its batch shares is read
    from ``batch``, which the server sets once, when the batch completes.
    """

    request_id: int
    num_samples: int                   # images in this request
    enqueued_at: float                 # perf_counter timestamps
    enqueued_wall: float = 0.0         # wall clock (unix s): aligns spans
    error: str | None = None
    batch: BatchSummary = BatchSummary()

    dispatched_at = _shared("dispatched_at")
    batch_requests = _shared("batch_requests")
    batch_samples = _shared("batch_samples")
    gather_s = _shared("gather_s")
    fusion_s = _shared("fusion_s")
    emulated_compute_s = _shared("emulated_compute_s")
    emulated_transfer_s = _shared("emulated_transfer_s")
    degraded = _shared("degraded")
    workers_down = _shared("workers_down")
    bytes_out = _apportioned("bytes_out")
    bytes_in = _apportioned("bytes_in")

    def _stamp(self, completed_at: float) -> None:
        # A stand-in server that forms no batches stamps completion here.
        self.batch = dataclasses.replace(self.batch, completed_at=completed_at)

    completed_at = property(operator.attrgetter("batch.completed_at"), _stamp)

    @property
    def queue_s(self) -> float:
        """Enqueue -> dispatch; 0.0 for a request never dispatched."""
        dispatched = self.batch.dispatched_at
        return dispatched - self.enqueued_at if dispatched else 0.0

    @property
    def total_s(self) -> float:
        return self.completed_at - self.enqueued_at

    @property
    def service_s(self) -> float:
        return self.completed_at - self.dispatched_at


@dataclasses.dataclass(frozen=True)
class BatchRecord:
    """One batch as booked when it completes (``perf_counter`` instants).

    ``replies`` maps each worker that answered to its reply's stage
    intervals: ``host_compute_s``, ``forward_s``, ``received_at``,
    ``decode_s``, ``compute_s`` / ``computed_at`` / ``compute_queued_s``
    on its device, ``transfer_s`` / ``delivered_at`` / ``queued_s`` on its
    link, ``bytes_out`` and ``codec``."""

    summary: BatchSummary
    requests: tuple[RequestTelemetry, ...]  # those this completion answers
    error: str | None = None           # None: answered with labels
    batch_id: int | None = None        # each worker's request id: the trace
    dispatched_wall: float = 0.0
    workers: int = 0                   # distinct hosting workers
    scatter_s: float = 0.0
    send_s: dict[str, float] = dataclasses.field(default_factory=dict)
    replies: dict[str, dict] = dataclasses.field(default_factory=dict)
    fusion_start: float = 0.0


def emit_spans(record: BatchRecord, tracer) -> None:
    """Draw every span of one batch from its record alone: the batch tree
    when it was answered, then a ``request`` / ``request.queue`` pair per
    request it answered."""
    summary, trace = record.summary, record.batch_id
    if record.error is None:
        batch = new_span_id()
        # `wall +` a perf_counter instant of this batch: the same instant
        # on the wall clock the spans share.
        wall = record.dispatched_wall - summary.dispatched_at

        def emit(name, ts, took, attrs=None, parent=batch, worker=None):
            """One span of the batch; a worker's own on its own track."""
            return tracer.emit(name, trace_id=trace, parent_id=parent, ts=ts,
                               duration_s=took, process=worker,
                               thread=worker, attrs=attrs).span_id

        tracer.emit("batch.serve", trace_id=trace, span_id=batch,
                    ts=record.dispatched_wall,
                    duration_s=summary.completed_at - summary.dispatched_at,
                    attrs={"requests": summary.batch_requests,
                           "samples": summary.batch_samples,
                           "workers": record.workers,
                           "degraded": summary.degraded})
        emit("batch.scatter", record.dispatched_wall, record.scatter_s,
             {"send_s": record.send_s})
        emit("batch.gather", record.dispatched_wall, summary.gather_s)
        # Per reply: the worker's own intervals, which end when its reply
        # was received, and its decode; then its compute on its device's
        # CPU, then its wire.
        for worker, reply in record.replies.items():
            host, forward = reply["host_compute_s"], reply["forward_s"]
            started = wall + (reply["received_at"] - host)
            codec = {"codec": reply["codec"], "nbytes": int(reply["bytes_out"])}
            handled = emit("worker.request", started, host,
                           {"samples": summary.batch_samples}, worker=worker)
            emit("worker.forward", started, forward, parent=handled,
                 worker=worker)
            emit("codec.encode", started + forward, host - forward, codec,
                 parent=handled, worker=worker)
            emit("codec.decode", wall + reply["received_at"],
                 reply["decode_s"], {"worker": worker, **codec})
            for name, end, took, attrs in (
                    ("device.compute", "computed_at", "compute_s",
                     {"queued_s": reply["compute_queued_s"]}),
                    ("link.transfer", "delivered_at", "transfer_s",
                     {"nbytes": codec["nbytes"],
                      "queued_s": reply["queued_s"]})):
                emit(name, wall + (reply[end] - reply[took]), reply[took],
                     {"worker": worker, took: reply[took], **attrs})
        emit("batch.fusion", wall + record.fusion_start, summary.fusion_s)
    for request in record.requests:
        root = new_span_id()
        attrs = {"batch_id": trace, "samples": request.num_samples}
        if request.degraded:
            attrs["degraded"] = True
        if request.error is not None:
            attrs["error"] = request.error
        tracer.emit("request", trace_id=request.request_id, span_id=root,
                    ts=request.enqueued_wall, duration_s=request.total_s,
                    attrs=attrs)
        tracer.emit("request.queue", trace_id=request.request_id,
                    parent_id=root, ts=request.enqueued_wall,
                    duration_s=request.queue_s)


@dataclasses.dataclass
class ServingReport:
    """Aggregate statistics over a window of completed requests."""

    completed: int
    failed: int
    wall_seconds: float
    throughput_rps: float              # requests / second
    throughput_sps: float              # samples (images) / second
    # Latency stats are None for an empty window (no completed requests):
    # there is no meaningful percentile, and None stays valid JSON.
    latency_p50_s: float | None
    latency_p95_s: float | None
    latency_p99_s: float | None
    latency_mean_s: float | None
    queue_mean_s: float | None
    gather_mean_s: float | None
    fusion_mean_s: float | None
    mean_batch_requests: float | None
    degraded_requests: int
    worker_health: dict[str, str]      # worker_id -> "up" | reason it is down
    wire_bytes_out: int = 0            # total input bytes scattered
    wire_bytes_in: int = 0             # total encoded feature bytes gathered
    effective_bw_mbps: float = 0.0     # gathered wire Mbit per wall second
    started_at: float | None = None    # wall clock (unix s) the window began
    metrics: dict | None = None        # registry snapshot, when requested

    @staticmethod
    def from_records(records: Iterable[RequestTelemetry],
                     wall_seconds: float,
                     worker_health: dict[str, str] | None = None,
                     started_at: float | None = None,
                     metrics: dict | None = None,
                     ) -> "ServingReport":
        # One python pass reads what differs per request and numbers each
        # distinct batch summary; one more reads each summary once.  Every
        # per-request value the properties of RequestTelemetry derive from
        # the summary (latency, queue wait, apportioned bytes) is then
        # computed as numpy columns, with the properties' arithmetic.  At
        # loadgen scale this path executes per report per rate point.
        records = list(records)
        n = len(records)
        rows: dict[int, int] = {}          # id(summary) -> its batch row
        summaries: list[BatchSummary] = []
        which = np.empty(n, dtype=np.intp)
        enqueued = np.empty(n)
        samples = np.empty(n)
        ok = np.empty(n, dtype=bool)
        for i, r in enumerate(records):
            batch = r.batch
            row = rows.get(id(batch))
            if row is None:
                row = rows[id(batch)] = len(summaries)
                summaries.append(batch)
            which[i] = row
            enqueued[i] = r.enqueued_at
            samples[i] = r.num_samples
            ok[i] = r.error is None
        batches = np.array(
            [(s.dispatched_at, s.completed_at, s.gather_s, s.fusion_s,
              s.batch_requests, s.batch_samples, s.bytes_out, s.bytes_in,
              s.degraded) for s in summaries],
            dtype=np.float64).reshape(-1, 9)[which[ok]]
        enqueued, samples = enqueued[ok], samples[ok]
        dispatched, completed_at = batches[:, 0], batches[:, 1]
        completed = int(ok.sum())
        failed = n - completed
        wall = max(wall_seconds, 1e-12)

        if completed:
            totals = completed_at - enqueued
            queues = np.where(dispatched != 0.0, dispatched - enqueued, 0.0)
            p50, p95, p99 = (float(v) for v in
                             np.percentile(totals, (50, 95, 99)))
            lat_mean, queue_mean = float(totals.mean()), float(queues.mean())
            gather_mean, fusion_mean, batch_mean = \
                (float(v) for v in batches[:, 2:5].mean(axis=0))
        else:
            p50 = p95 = p99 = lat_mean = None
            queue_mean = gather_mean = fusion_mean = batch_mean = None
        # Each request's share of its batch's bytes, rounded per request.
        share = samples / np.maximum(batches[:, 5], 1.0)
        wire_out, wire_in = (int(np.rint(batches[:, col] * share).sum())
                             for col in (6, 7))
        samples = float(samples.sum())

        return ServingReport(
            completed=completed,
            failed=failed,
            wall_seconds=wall_seconds,
            throughput_rps=completed / wall,
            throughput_sps=samples / wall,
            latency_p50_s=p50,
            latency_p95_s=p95,
            latency_p99_s=p99,
            latency_mean_s=lat_mean,
            queue_mean_s=queue_mean,
            gather_mean_s=gather_mean,
            fusion_mean_s=fusion_mean,
            mean_batch_requests=batch_mean,
            degraded_requests=int(batches[:, 8].sum()),
            worker_health=dict(worker_health or {}),
            wire_bytes_out=wire_out,
            wire_bytes_in=wire_in,
            effective_bw_mbps=wire_in * 8 / 1e6 / wall,
            started_at=started_at,
            metrics=metrics,
        )

    def to_dict(self) -> dict:
        """JSON-serializable view (empty-window stats are ``null``)."""
        data = dataclasses.asdict(self)
        data["schema_version"] = SERVING_SCHEMA_VERSION
        return data

    def row(self) -> dict:
        """One flat dict, ready for :func:`repro.core.metrics.format_table`."""
        down = sorted(w for w, s in self.worker_health.items() if s != "up")
        return {
            "completed": self.completed,
            "failed": self.failed,
            "rps": round(self.throughput_rps, 2),
            "img/s": round(self.throughput_sps, 2),
            "p50_ms": _round(self.latency_p50_s, 3, 1e3),
            "p95_ms": _round(self.latency_p95_s, 3, 1e3),
            "p99_ms": _round(self.latency_p99_s, 3, 1e3),
            "queue_ms": _round(self.queue_mean_s, 3, 1e3),
            "fusion_ms": _round(self.fusion_mean_s, 3, 1e3),
            "batch_reqs": _round(self.mean_batch_requests, 2),
            "wire_in_kb": round(self.wire_bytes_in / 1024, 1),
            "wire_out_kb": round(self.wire_bytes_out / 1024, 1),
            "bw_mbps": round(self.effective_bw_mbps, 3),
            "degraded": self.degraded_requests,
            "down": ",".join(down) or "-",
        }
