"""Per-layer numbers, taken from outside the program.

This change may not touch ``src/``, so every layer is measured one of
two ways: timed calls into the layer's public functions (probes), or
the public values the program already hands back
(``RequestTelemetry``, ``InferenceTiming.per_worker``, the metrics
registry behind ``obs.ProfilingBackend``).  Layers carry the names of
the modules they live in.

Spans are the benchmark's own — name, start, end, parent, request id,
kept in memory and written when the run ends — around
``submit -> result`` of every traced request and around every probe.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import statistics
import time
from pathlib import Path

import numpy as np

from repro import nn, obs
from repro.core.inference import extract_features, predict
from repro.edge.codec import get_codec
from repro.edge.network import StarTopology
from repro.edge.runtime import MODEL_KINDS
from repro.edge.simulator import (
    DeploymentSpec,
    SubModelProfile,
    simulate_inference,
)
from repro.planning import plan_demo_system, score_plan
from repro.profiling import fusion_flops
from repro.serving import BatchingConfig, DynamicBatcher, ServedFuture
from repro.serving.telemetry import RequestTelemetry
from repro.store import ArtifactStore, recipe_digest

import drivers
import sampling
from fleets import NUM_WORKERS, Fleet, Prepared

BACKEND_KERNELS = ("linear", "linear_act", "matmul", "einsum", "softmax",
                   "layer_norm")
PROBE_BUDGET_S = 0.25


class SpanLog:
    """In-memory spans: ``{id, name, start, end, parent, request_id}``."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    def add(self, name: str, start: float, end: float,
            parent: int | None = None, request_id=None) -> int:
        span_id = len(self.spans)
        self.spans.append({"id": span_id, "name": name, "start": start,
                           "end": end, "parent": parent,
                           "request_id": request_id})
        return span_id

    @contextlib.contextmanager
    def span(self, name: str):
        """Time a block; nested blocks record the enclosing one as parent."""
        span_id = self.add(name, time.perf_counter(), 0.0,
                           parent=self._open[-1] if self._open else None)
        self._open.append(span_id)
        try:
            yield span_id
        finally:
            self._open.pop()
            self.spans[span_id]["end"] = time.perf_counter()

    def add_request(self, reply: drivers.Reply) -> None:
        """``submit -> result`` of one request, with the queue / gather /
        fusion stretches its public telemetry reports as children."""
        t = reply.telemetry
        rid = t.request_id
        root = self.add("request", reply.submitted, reply.completed,
                        request_id=rid)
        self.add("request.queue", t.enqueued_at, t.dispatched_at, root, rid)
        gathered = t.dispatched_at + t.gather_s
        self.add("request.gather", t.dispatched_at, gathered, root, rid)
        self.add("request.fusion", gathered, gathered + t.fusion_s, root, rid)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"clock": "perf_counter_s", "spans": self.spans},
                      handle, allow_nan=False)


def repeat(fn, budget_s: float = PROBE_BUDGET_S, min_reps: int = 5,
           max_reps: int = 2000) -> float:
    """Median seconds of ``fn()`` after one warm call, for ``budget_s``."""
    fn()
    samples: list[float] = []
    deadline = time.perf_counter() + budget_s
    while len(samples) < min_reps or (time.perf_counter() < deadline
                                      and len(samples) < max_reps):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


# ----------------------------------------------------------------------
# Telemetry the server already returns.
def batch_sizes(replies: list[drivers.Reply]) -> list[int]:
    """Images in each batch that served ``replies``: one batch is one
    dispatch stamp, which the requests coalesced into it share."""
    return list({r.telemetry.dispatched_at: r.telemetry.batch_samples
                 for r in replies if r.status == drivers.OK}.values())


def telemetry_metrics(replies: list[drivers.Reply],
                      time_scale: float) -> dict[str, float]:
    """serving.batcher / serving.server / edge.transport / edge.network
    numbers of one phase, from the replies' ``RequestTelemetry``."""
    done = [r.telemetry for r in replies if r.status == drivers.OK]
    images = sum(t.num_samples for t in done)
    batches = batch_sizes(replies)

    def p(values, q):
        return sampling.percentile(values, q) * 1e3

    return {
        "batcher.queue_wait_p50_ms": p([t.queue_s for t in done], 50),
        "batcher.queue_wait_p95_ms": p([t.queue_s for t in done], 95),
        "batcher.batch_samples_mean": statistics.fmean(batches),
        "batcher.batches": float(len(batches)),
        "server.gather_p50_ms": p([t.gather_s for t in done], 50),
        "server.gather_p95_ms": p([t.gather_s for t in done], 95),
        "server.fusion_p50_ms": p([t.fusion_s for t in done], 50),
        "transport.bytes_out_per_image":
            sum(t.bytes_out for t in done) / images,
        "transport.bytes_in_per_image":
            sum(t.bytes_in for t in done) / images,
        "link.emulated_transfer_p50_ms":
            p([t.emulated_transfer_s for t in done], 50) * time_scale,
        "link.emulated_compute_p50_ms":
            p([t.emulated_compute_s for t in done], 50) * time_scale,
    }


# ----------------------------------------------------------------------
# Probes: timed calls into each layer's public functions.
def probe_cluster(cluster, pool: np.ndarray, batch: int, time_scale: float,
                  offsets) -> dict[str, float]:
    """edge.transport / edge.runtime: ``infer_features`` at ``batch``,
    split into worker compute, emulated sleep and the hop around them.

    Calls start on ``offsets`` — a ``lo`` arrival schedule — because a
    worker that idled since the last request (cold caches, a parked
    core) runs the same forward ~20 % slower than one called back to
    back, and the numbers are to be laid beside ``lo``'s gather time."""
    hops, computes, sleeps = [], [], []
    begin = time.perf_counter()
    for k, offset in enumerate(offsets):
        delay = begin + offset - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        start = (k * batch) % (len(pool) - batch)
        _, timing = cluster.infer_features(pool[start:start + batch])
        # The slowest worker is the one the gather waits for.
        critical = max(
            timing.per_worker.values(),
            key=lambda w: max(w["host_compute_s"],
                              (w["emulated_compute_s"]
                               + w["emulated_transfer_s"]) * time_scale))
        compute = critical["host_compute_s"]
        sleep = max(0.0, (critical["emulated_compute_s"]
                          + critical["emulated_transfer_s"]) * time_scale
                    - compute)
        computes.append(compute)
        sleeps.append(sleep)
        hops.append(timing.wall_seconds - compute - sleep)
    return {"transport.hop_ms": statistics.median(hops) * 1e3,
            "worker.host_compute_p50_ms": statistics.median(computes) * 1e3,
            "link.emulated_sleep_p50_ms": statistics.median(sleeps) * 1e3}


def probe_backend(model, x8: np.ndarray) -> dict[str, float]:
    """nn.backend: one profiled batch-8 forward, split by kernel."""
    inner = nn.get_backend()
    profiled = obs.ProfilingBackend(inner)
    registry = obs.get_registry()

    def totals():
        seconds = {op: registry.histogram(f"kernel.{op}_seconds",
                                          backend=inner.name).sum
                   for op in obs.PROFILED_KERNELS}
        moved = sum(registry.counter(f"kernel.{op}_bytes_total",
                                     backend=inner.name).value
                    for op in obs.PROFILED_KERNELS)
        return seconds, moved

    reps = 5
    with nn.use_backend(profiled):
        extract_features(model, x8, keep_workspaces=True)
        before, moved_before = totals()
        t0 = time.perf_counter()
        for _ in range(reps):
            extract_features(model, x8, keep_workspaces=True)
        forward_ms = (time.perf_counter() - t0) * 1e3 / reps
        after, moved_after = totals()
    kernel_ms = {op: (after[op] - before[op]) * 1e3 / reps
                 for op in obs.PROFILED_KERNELS}
    out = {f"backend.{op}_ms": kernel_ms[op] for op in BACKEND_KERNELS}
    # What is left after every timed kernel is the Python between them.
    out["backend.dispatch_ms"] = forward_ms - sum(kernel_ms.values())
    # Computed from operand and result sizes, not measured traffic.
    out["backend.bytes_moved_mb"] = (moved_after - moved_before) / reps / 1e6
    return out


def probe_batcher() -> float:
    """serving.batcher: seconds for a lone request to cross a standalone
    ``DynamicBatcher`` (``submit`` + ``next_batch``), no wait window."""
    batcher = DynamicBatcher(BatchingConfig(max_batch_samples=1,
                                            max_wait_s=0.0))
    x = np.zeros((1, 1), dtype=np.float32)

    def hop():
        batcher.submit(ServedFuture(0, x, RequestTelemetry(0, 1, 0.0)))
        batcher.next_batch()

    return repeat(hop)


def probe_state_load(spec) -> float:
    """edge.runtime: decode a worker's state blob and load it."""
    kind = MODEL_KINDS[spec.model_kind]
    model = kind.build(kind.config_from_dict(dict(spec.model_config)))
    if spec.quant != "fp32":
        model = nn.quantize_module(model, scheme=spec.quant)
    return repeat(lambda: model.load_state_dict(
        nn.state_dict_from_bytes(spec.state_blob)))


def probe_store(model, scratch: Path) -> dict[str, float]:
    """store: put and verified get of one sub-model checkpoint."""
    store = ArtifactStore(scratch / "probe-store")
    digest = recipe_digest({"probe": "e2e"})
    config = model.config.to_dict()
    put_s = repeat(lambda: store.put(digest, model, config=config,
                                     kind="vit"), budget_s=0.1, min_reps=3)
    get_s = repeat(lambda: store.get(digest), budget_s=0.1, min_reps=3)
    return {"store.put_ms": put_s * 1e3, "store.get_ms": get_s * 1e3}


def deployment_spec(fleet: Fleet, prepared: Prepared) -> DeploymentSpec:
    """The DES view of the fleet that is being served."""
    if fleet.planned is not None:
        return fleet.planned.plan.deployment_spec()
    specs = fleet.server.cluster.specs
    fusion = prepared.fusion.config
    links = {s.device.device_id: s.link for s in specs}
    links["fusion"] = specs[0].link
    return DeploymentSpec(
        devices=[s.device for s in specs],
        placement={s.worker_id: s.device.device_id for s in specs},
        profiles={s.worker_id: SubModelProfile(
            s.worker_id, s.flops_per_sample, s.feature_dim, s.codec)
            for s in specs},
        fusion_device=dataclasses.replace(specs[0].device,
                                          device_id="fusion"),
        fusion_flops=float(fusion_flops(fusion.input_dim,
                                        fusion.num_classes, fusion.shrink)),
        topology=StarTopology(device_links=links))


def probe_simulator(spec: DeploymentSpec, arrivals: list[float],
                    served_p50_ms: float) -> dict[str, float]:
    """edge.simulator: both engines on the hi arrival schedule, and how
    far the predicted median is from the served one."""
    out = {}
    for engine in ("event", "vector"):
        t0 = time.perf_counter()
        result = simulate_inference(spec, arrival_times=arrivals,
                                    engine=engine)
        out[f"simulator.{engine}_s"] = time.perf_counter() - t0
    predicted = statistics.median(result.latencies) * 1e3
    out["simulator.predicted_p50_ms"] = predicted
    out["simulator.p50_error_share"] = \
        abs(predicted - served_p50_ms) / served_p50_ms
    return out


def probe_offline(fleet: Fleet, prepared: Prepared) -> dict[str, float]:
    """store / planning: the stack ``setup_s`` crosses on overhead_bound
    (the other fleets are assembled by hand and plan nothing: 0)."""
    out = probe_store(prepared.models[0], prepared.scratch)
    out.update({"store.warm_boot_s": 0.0, "planning.plan_s": 0.0,
                "planning.score_ms": 0.0, "system.fused_accuracy": 0.0})
    planned = fleet.planned
    if planned is not None:
        out["store.warm_boot_s"] = fleet.timings["build_s"]
        out["planning.plan_s"] = repeat(
            lambda: plan_demo_system(num_workers=NUM_WORKERS,
                                     transport="inprocess"), budget_s=0.1)
        out["planning.score_ms"] = repeat(
            lambda: score_plan(planned.plan), budget_s=0.1) * 1e3
        data = planned.eval_dataset()
        out["system.fused_accuracy"] = planned.local_accuracy(data.x_test,
                                                              data.y_test)
    return out


def probe_driver_side(fleet: Fleet, prepared: Prepared,
                      spans: SpanLog) -> dict[str, float]:
    """Every probe that needs no running cluster, each under its span."""
    model = prepared.models[0]
    spec = fleet.server.cluster.specs[0]
    codec = get_codec(spec.codec)
    x1, x8 = prepared.pool[:1], prepared.pool[:8]
    feats = extract_features(model, x1)
    fused1 = np.concatenate(
        [extract_features(m, x1) for m in prepared.models], axis=-1)
    fused8 = np.concatenate(
        [extract_features(m, x8) for m in prepared.models], axis=-1)
    encoded = codec.encode(feats)
    out: dict[str, float] = {}

    def timed(name: str, fn, scale: float) -> None:
        with spans.span(f"probe.{name}"):
            out[name] = repeat(fn) * scale

    timed("worker.forward_b1_ms",
          lambda: extract_features(model, x1, keep_workspaces=True), 1e3)
    timed("worker.forward_b8_ms",
          lambda: extract_features(model, x8, keep_workspaces=True), 1e3)
    timed("codec.encode_us", lambda: codec.encode(feats), 1e6)
    timed("codec.decode_us", lambda: codec.decode(encoded), 1e6)
    out["codec.bytes_per_image"] = float(encoded.nbytes)
    timed("fusion.predict_b1_us",
          lambda: predict(prepared.fusion, fused1, keep_workspaces=True),
          1e6)
    timed("fusion.predict_b8_us",
          lambda: predict(prepared.fusion, fused8, keep_workspaces=True),
          1e6)
    with spans.span("probe.batcher.form_us"):
        out["batcher.form_us"] = probe_batcher() * 1e6
    with spans.span("probe.worker.state_load_ms"):
        out["worker.state_load_ms"] = probe_state_load(spec) * 1e3
    with spans.span("probe.backend"):
        out.update(probe_backend(model, x8))
    with spans.span("probe.offline"):
        out.update(probe_offline(fleet, prepared))
    return out


# ----------------------------------------------------------------------
def budget(lo_p50_ms: float, m: dict[str, float]) -> dict[str, float]:
    """Reconcile the layers with the served median (all p50s, ms).

    Two levels.  A request is queue wait + gather + fusion, and what is
    left is ``budget.request_residual_ms`` (submit path, generator
    lateness, and p50s not adding up).  A gather is the probed worker
    path — transport hop (which contains the codec decode) + worker
    compute (which contains the encode) + emulated link sleep — and what
    is left is the serve loop's own share, ``server.gather_overhead_ms``.
    The two leftovers together are what no layer accounts for.
    """
    request = (m["batcher.queue_wait_p50_ms"] + m["server.gather_p50_ms"]
               + m["server.fusion_p50_ms"])
    worker_path = (m["transport.hop_ms"] + m["worker.host_compute_p50_ms"]
                   + m["link.emulated_sleep_p50_ms"])
    residual = lo_p50_ms - request
    overhead = m["server.gather_p50_ms"] - worker_path
    return {"budget.request_residual_ms": residual,
            "server.gather_overhead_ms": overhead,
            "budget.unattributed_ms": residual + overhead,
            "budget.unattributed_share":
                abs(residual + overhead) / lo_p50_ms}


def budget_lines(lo_p50_ms: float, m: dict[str, float]) -> list[str]:
    """The budget as the two printed sums."""
    return [
        f"lo.latency_p50_ms {lo_p50_ms:.3f} = "
        f"batcher.queue_wait_p50_ms {m['batcher.queue_wait_p50_ms']:.3f} + "
        f"server.gather_p50_ms {m['server.gather_p50_ms']:.3f} + "
        f"server.fusion_p50_ms {m['server.fusion_p50_ms']:.3f} + "
        f"residual {m['budget.request_residual_ms']:.3f}",
        f"server.gather_p50_ms {m['server.gather_p50_ms']:.3f} = "
        f"transport.hop_ms {m['transport.hop_ms']:.3f} + "
        f"worker.host_compute_p50_ms "
        f"{m['worker.host_compute_p50_ms']:.3f} + "
        f"link.emulated_sleep_p50_ms "
        f"{m['link.emulated_sleep_p50_ms']:.3f} + "
        f"server.gather_overhead_ms {m['server.gather_overhead_ms']:.3f}",
        f"budget.unattributed_ms {m['budget.unattributed_ms']:.3f} "
        f"({m['budget.unattributed_share']:.1%} of lo.latency_p50_ms)",
    ]
