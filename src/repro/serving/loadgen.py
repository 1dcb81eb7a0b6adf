"""Load generator for the serving layer.

Two canonical client models:

* **open loop** — requests arrive on a Poisson process at a configured
  offered rate, independent of completions (models external traffic; the
  honest way to measure tail latency under load).  Latency counts from
  the instant a request was **due** on the schedule, not from when the
  generator got round to submitting it, so a stall that holds up the
  generator raises the latency of every request due during it instead
  of hiding; how late the generator ran is reported beside it
  (``late_p95_s``); and
* **closed loop** — a fixed number of concurrent clients each submit,
  wait, and immediately submit again (models a worker pool; measures
  sustainable throughput).

A third mode, **trace**, replays an explicit arrival schedule (a
:class:`repro.serving.traffic.ArrivalTrace`) against the real server —
the same schedule :func:`repro.edge.simulator.simulate_inference`
accepts as ``arrival_times``, so simulated capacity plans can be
validated against live serving with identical traffic.

:func:`sweep_offered_load` runs the open loop at several rates and
returns the latency-vs-offered-load curve the benchmarks plot.
"""

from __future__ import annotations

import dataclasses
import math
import threading
import time
from typing import Callable, Sequence

import numpy as np

from .batcher import RequestError, ServedFuture
from .server import InferenceServer
from .telemetry import ServingReport, _round, percentile


@dataclasses.dataclass(frozen=True)
class LoadgenConfig:
    num_requests: int = 200
    mode: str = "closed"               # "open" (Poisson), "closed", "trace"
    offered_rps: float = 100.0         # open loop: mean arrival rate
    concurrency: int = 4               # closed loop: in-flight clients
    images_per_request: int = 1
    request_timeout_s: float = 30.0
    seed: int = 0
    # Trace mode: absolute arrival offsets in seconds from run start
    # (sorted, non-negative — e.g. an ArrivalTrace's ``arrivals``).
    # Overrides num_requests/offered_rps.
    arrivals: tuple[float, ...] | None = None


# Supplies each request's input: (rng, images_per_request) -> array.
# Lets callers stream real data (e.g. labelled test images) through the
# generator's arrival pacing instead of synthetic noise.
MakeInput = Callable[["np.random.Generator", int], np.ndarray]


@dataclasses.dataclass
class LoadgenResult:
    config: LoadgenConfig
    # Requested rate; None for closed-loop runs, where there is no offered
    # rate (arrivals are completion-driven).  Must stay None rather than
    # NaN so row() serializes under json.dumps(..., allow_nan=False).
    offered_rps: float | None
    achieved_rps: float
    completed: int
    errors: int
    dropped: int                       # admission-control rejections
    latencies_s: list[float]
    report: ServingReport
    # Resolved futures in submission order (open loop) — lets callers
    # match per-request telemetry/labels back to their inputs.
    futures: list[ServedFuture] = dataclasses.field(default_factory=list)
    # Open loop / trace: how long after its due time each request was
    # submitted (generator lateness).  Empty for closed-loop runs.
    lateness_s: list[float] = dataclasses.field(default_factory=list)

    @property
    def late_p95_s(self) -> float | None:
        return percentile(self.lateness_s, 95)

    @property
    def p50_s(self) -> float | None:
        return percentile(self.latencies_s, 50)

    @property
    def p95_s(self) -> float | None:
        return percentile(self.latencies_s, 95)

    @property
    def p99_s(self) -> float | None:
        return percentile(self.latencies_s, 99)

    def row(self) -> dict:
        return {
            "mode": self.config.mode,
            # Guard NaN as well as None: a pre-fix caller may still pass
            # float("nan") for closed-loop runs.
            "offered_rps": None
            if self.offered_rps is None or math.isnan(self.offered_rps)
            else round(self.offered_rps, 1),
            "achieved_rps": round(self.achieved_rps, 2),
            "completed": self.completed,
            "errors": self.errors,
            "dropped": self.dropped,
            "p50_ms": _round(self.p50_s, 3, 1e3),
            "p95_ms": _round(self.p95_s, 3, 1e3),
            "p99_ms": _round(self.p99_s, 3, 1e3),
            "late_p95_s": _round(self.late_p95_s, 6),
            "wire_in_kb": round(self.report.wire_bytes_in / 1024, 1),
            "bw_mbps": round(self.report.effective_bw_mbps, 3),
        }


def _make_input(rng: np.random.Generator, input_shape: tuple[int, ...],
                count: int) -> np.ndarray:
    return rng.normal(size=(count, *input_shape)).astype(np.float32)


def run_load(server: InferenceServer, input_shape: tuple[int, ...],
             config: LoadgenConfig | None = None,
             make_input: MakeInput | None = None) -> LoadgenResult:
    """Drive ``server`` with traffic and collect latency stats.

    ``input_shape`` is one sample's shape, e.g. ``(3, 8, 8)``.  By default
    requests carry synthetic noise; pass ``make_input`` to supply real
    per-request payloads (see :data:`MakeInput`).
    """
    config = config or LoadgenConfig()
    if make_input is None:
        def make_input(rng, count):
            return _make_input(rng, input_shape, count)
    if config.mode in ("open", "trace"):
        return _run_open_loop(server, config, make_input)
    if config.mode == "closed":
        return _run_closed_loop(server, config, make_input)
    raise ValueError(f"unknown loadgen mode {config.mode!r}; "
                     "choose 'open', 'closed' or 'trace'")


def _collect(server: InferenceServer, config: LoadgenConfig,
             futures: list[ServedFuture], dropped: int,
             wall_seconds: float, offered_rps: float,
             started_at: float | None = None,
             due: list[float] | None = None,
             lateness: Sequence[float] = ()) -> LoadgenResult:
    """Resolve ``futures`` into a result.  ``due`` (open loop / trace)
    holds each future's scheduled send time, and latency counts from it;
    without it (closed loop) latency counts from the enqueue stamp."""
    latencies: list[float] = []
    errors = 0
    for k, future in enumerate(futures):
        try:
            future.result(config.request_timeout_s)
        except Exception:
            errors += 1
            continue
        telemetry = future.telemetry
        latencies.append(telemetry.total_s if due is None
                         else telemetry.completed_at - due[k])
    # Scope the report to THIS run's requests: the server may have served
    # earlier runs (e.g. previous rates of a sweep), and its telemetry
    # ring stops growing once full, so no slice of it is this run's.
    run_records = [f.telemetry for f in futures if f.done()]
    return LoadgenResult(
        config=config,
        offered_rps=offered_rps,
        achieved_rps=len(latencies) / max(wall_seconds, 1e-12),
        completed=len(latencies),
        errors=errors,
        dropped=dropped,
        latencies_s=latencies,
        report=ServingReport.from_records(
            run_records, wall_seconds=wall_seconds,
            worker_health=server.worker_health(),
            started_at=started_at),
        futures=futures,
        lateness_s=list(lateness),
    )


def _trace_offsets(config: LoadgenConfig) -> list[float]:
    """Validated arrival offsets for trace mode (seconds from run start)."""
    if not config.arrivals:
        raise ValueError("trace mode requires config.arrivals")
    offsets = [float(t) for t in config.arrivals]
    if not all(math.isfinite(t) for t in offsets) or offsets[0] < 0:
        raise ValueError("trace arrivals must be finite and non-negative")
    if any(b < a for a, b in zip(offsets, offsets[1:])):
        raise ValueError("trace arrivals must be sorted")
    return offsets


def _run_open_loop(server: InferenceServer, config: LoadgenConfig,
                   make_input: MakeInput) -> LoadgenResult:
    """Arrival-paced driver: Poisson ("open") or trace replay ("trace")."""
    offsets = _trace_offsets(config) if config.mode == "trace" else None
    rng = np.random.default_rng(config.seed)
    futures: list[ServedFuture] = []
    due: list[float] = []              # per admitted future, same order
    lateness: list[float] = []
    dropped = 0
    started_at = time.time()
    start = time.perf_counter()
    next_arrival = start
    num_requests = config.num_requests if offsets is None else len(offsets)
    for k in range(num_requests):
        if offsets is None:
            next_arrival += rng.exponential(1.0 / config.offered_rps)
        else:
            next_arrival = start + offsets[k]
        # Build the payload before the sleep: its cost belongs to the
        # generator's idle time, not to the request's lateness.
        x = make_input(rng, config.images_per_request)
        delay = next_arrival - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        lateness.append(time.perf_counter() - next_arrival)
        try:
            futures.append(server.submit(x))
            due.append(next_arrival)
        except RequestError:
            dropped += 1
    for future in futures:             # wall clock covers full drain
        try:
            future.result(config.request_timeout_s)
        except Exception:
            pass                       # recorded as an error during collect
    wall = time.perf_counter() - start
    if offsets is None:
        offered = config.offered_rps
    else:                              # trace: mean rate over the span
        offered = (len(offsets) / offsets[-1]) if offsets[-1] > 0 else None
    return _collect(server, config, futures, dropped, wall,
                    offered_rps=offered, started_at=started_at,
                    due=due, lateness=lateness)


def _run_closed_loop(server: InferenceServer, config: LoadgenConfig,
                     make_input: MakeInput) -> LoadgenResult:
    futures: list[ServedFuture] = []
    futures_lock = threading.Lock()
    counter = {"next": 0, "dropped": 0}

    def client(seed: int) -> None:
        rng = np.random.default_rng(seed)
        while True:
            with futures_lock:
                if counter["next"] >= config.num_requests:
                    return
                counter["next"] += 1
            try:
                future = server.submit(
                    make_input(rng, config.images_per_request))
            except RequestError:
                with futures_lock:
                    counter["dropped"] += 1
                continue
            with futures_lock:
                futures.append(future)
            try:
                future.result(config.request_timeout_s)
            except Exception:
                pass                   # recorded as an error during collect

    started_at = time.time()
    start = time.perf_counter()
    threads = [threading.Thread(target=client, args=(config.seed + i,),
                                daemon=True)
               for i in range(config.concurrency)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    return _collect(server, config, futures, counter["dropped"], wall,
                    offered_rps=None, started_at=started_at)


def sweep_offered_load(server: InferenceServer, input_shape: tuple[int, ...],
                       rates_rps: list[float], num_requests: int = 100,
                       seed: int = 0) -> list[LoadgenResult]:
    """Open-loop latency-vs-offered-load curve (one result per rate).

    Determinism contract: one child seed per rate is derived from ``seed``
    via ``np.random.SeedSequence(seed).spawn``, so the same (seed, rates)
    pair always replays the identical sweep, while every rate's arrival
    jitter and payloads are statistically independent of every other
    rate's.  (Reusing ``seed`` verbatim at each rate — the old behaviour —
    made all points of the curve share one correlated random stream.)
    """
    children = np.random.SeedSequence(seed).spawn(len(rates_rps))
    results = []
    for rate, child in zip(rates_rps, children):
        config = LoadgenConfig(num_requests=num_requests, mode="open",
                               offered_rps=rate,
                               seed=int(child.generate_state(1)[0]))
        results.append(run_load(server, input_shape, config))
    return results
