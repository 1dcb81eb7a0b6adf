"""Discrete-event simulation of ED-ViT distributed inference.

Models the paper's deployment (Fig. 3): N worker devices each hold one or
more sub-models; for every input sample each worker runs its sub-models
and ships the CLS features through its (tc-capped) link to the fusion
device, which concatenates them and runs the fusion MLP.  Per-sample
latency is the scatter→compute→transfer→fuse critical path; streams of
samples pipeline naturally through the FIFO resources.

Two engines produce identical results: the event-loop DES (one Python
callback per event — general, and the reference semantics) and the
vectorized fast path (:mod:`repro.edge.fastsim`) that advances the whole
fleet's FIFO recurrences with numpy — orders of magnitude faster at
fleet scale and bit-identical where applicable.  ``engine="auto"`` (the
default, and what :class:`repro.planning.Planner` scoring uses) picks the
fast path automatically whenever the run is pure star-pattern — which it
always is for ``simulate_inference``'s own workload unless inputs are
shipped to workers on an open arrival stream.
"""

from __future__ import annotations

import dataclasses
import math
import statistics
from typing import Sequence

from . import fastsim
from .codec import get_codec
from .device import DeviceModel
from .network import StarTopology, uniform_star
from .sim_core import Barrier, FifoResource, Simulator

ENGINES = ("auto", "event", "vector")


@dataclasses.dataclass(frozen=True)
class SubModelProfile:
    """What the simulator needs to know about one deployed sub-model."""

    model_id: str
    flops_per_sample: float
    feature_dim: int
    codec: str = "raw32"               # wire codec the features ship with

    @property
    def feature_bytes(self) -> int:
        """Estimated wire bytes per sample under the profile's codec."""
        return get_codec(self.codec).estimate_bytes(self.feature_dim)


@dataclasses.dataclass(frozen=True)
class DeploymentSpec:
    """A complete deployment: devices, placement, fusion cost, topology."""

    devices: list[DeviceModel]
    placement: dict[str, str]              # model_id -> device_id
    profiles: dict[str, SubModelProfile]   # model_id -> profile
    fusion_device: DeviceModel
    fusion_flops: float
    topology: StarTopology | None = None
    input_bytes: int = 0                   # >0 to also ship inputs to workers

    def resolved_topology(self) -> StarTopology:
        if self.topology is not None:
            return self.topology
        ids = [d.device_id for d in self.devices] + [self.fusion_device.device_id]
        return uniform_star(ids)


@dataclasses.dataclass
class SimulationResult:
    latencies: list[float]                 # per-sample end-to-end seconds
    makespan: float
    device_busy: dict[str, float]
    link_busy: dict[str, float]
    # Merged busy intervals per resource ("cpu:<id>" / "link:<id>"), the
    # FifoResource segment semantics — lets callers compute horizon-clamped
    # utilization after the run, regardless of which engine produced it.
    busy_segments: dict[str, list[tuple[float, float]]] = \
        dataclasses.field(default_factory=dict)
    engine: str = "event"                  # which engine produced this run

    @property
    def mean_latency(self) -> float:
        return statistics.fmean(self.latencies)

    @property
    def max_latency(self) -> float:
        return max(self.latencies)

    @property
    def throughput(self) -> float:
        """Completed samples per second over the whole run."""
        return len(self.latencies) / self.makespan if self.makespan > 0 else 0.0

    def busy_within(self, resource: str, horizon: float) -> float:
        """Service seconds booked on ``resource`` inside ``[0, horizon]``
        (:meth:`repro.edge.sim_core.FifoResource.busy_within` semantics)."""
        total = 0.0
        for start, finish in self.busy_segments.get(resource, []):
            if start >= horizon:
                break
            total += min(finish, horizon) - start
        return total

    def utilization(self, resource: str, horizon: float) -> float:
        if horizon <= 0:
            return 0.0
        return min(1.0, self.busy_within(resource, horizon) / horizon)


def _resolve_arrivals(num_samples: int, arrival_interval: float,
                      arrival_times: Sequence[float] | None) -> list[float]:
    """The absolute per-sample arrival times a run simulates.

    ``arrival_times`` (e.g. a :class:`repro.serving.traffic.ArrivalTrace`'s
    arrivals) overrides the uniform ``num_samples`` × ``arrival_interval``
    schedule; it must be non-empty, finite, non-negative and sorted.
    """
    if arrival_times is not None:
        if arrival_interval:
            raise ValueError(
                "pass arrival_interval or arrival_times, not both")
        arrivals = [float(t) for t in arrival_times]
        if not arrivals:
            raise ValueError("arrival_times must not be empty")
        if not all(math.isfinite(t) for t in arrivals) or arrivals[0] < 0:
            raise ValueError("arrival_times must be finite and non-negative")
        for earlier, later in zip(arrivals, arrivals[1:]):
            if later < earlier:
                raise ValueError("arrival_times must be sorted")
        return arrivals
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    return [k * arrival_interval for k in range(num_samples)]


def simulate_inference(spec: DeploymentSpec, num_samples: int = 1,
                       arrival_interval: float = 0.0,
                       failed_devices: set[str] | frozenset[str] | None = None,
                       arrival_times: Sequence[float] | None = None,
                       engine: str = "auto",
                       ) -> SimulationResult:
    """Simulate inferences through the deployment.

    ``arrival_interval == 0`` issues all samples at t=0 (batch mode);
    a positive interval issues an open stream, exercising pipelining.
    ``arrival_times`` replaces both with an explicit sorted schedule of
    absolute arrival seconds (trace-driven simulation) — the sample count
    is then ``len(arrival_times)``.

    ``failed_devices`` marks crashed workers: their sub-models never
    deliver features and the fusion barrier proceeds without them (the
    fusion device zero-fills the missing slots — see
    :meth:`repro.planning.PlannedSystem.local_fused_labels` with
    ``zero_models``).

    ``engine`` selects the scorer: ``"event"`` runs the callback event
    loop, ``"vector"`` forces the numpy fast path (ValueError when its
    star-pattern preconditions do not hold), and ``"auto"`` — the default —
    uses the fast path whenever it is exact and falls back otherwise.
    Both engines return bit-identical results.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; choose from {ENGINES}")
    arrivals = _resolve_arrivals(num_samples, arrival_interval, arrival_times)
    failed = set(failed_devices or ())
    known = {d.device_id for d in spec.devices}
    if not failed <= known:
        raise KeyError(f"failed devices not in fleet: {sorted(failed - known)}")

    if engine != "event":
        if fastsim.applicable(spec, arrivals):
            run = fastsim.simulate_star(spec, arrivals, failed)
            return SimulationResult(
                latencies=run.latencies.tolist(),
                makespan=run.makespan,
                device_busy=run.device_busy,
                link_busy=run.link_busy,
                busy_segments=run.busy_segments,
                engine="vector")
        if engine == "vector":
            raise ValueError(
                "vector engine requires the star pattern to be static: "
                "input_bytes == 0 or a single batch arrival instant")
    return _simulate_event_loop(spec, arrivals, failed)


def _simulate_event_loop(spec: DeploymentSpec, arrivals_schedule: list[float],
                         failed: set[str]) -> SimulationResult:
    """The reference callback-per-event DES."""
    num_samples = len(arrivals_schedule)
    sim = Simulator()
    topology = spec.resolved_topology()

    compute: dict[str, FifoResource] = {
        d.device_id: FifoResource(sim, f"cpu:{d.device_id}") for d in spec.devices}
    fusion_cpu = FifoResource(sim, f"cpu:{spec.fusion_device.device_id}")
    uplinks: dict[str, FifoResource] = {
        d.device_id: FifoResource(sim, f"link:{d.device_id}") for d in spec.devices}

    device_by_id = {d.device_id: d for d in spec.devices}
    models_on: dict[str, list[SubModelProfile]] = {d.device_id: [] for d in spec.devices}
    for model_id, device_id in spec.placement.items():
        if device_id not in models_on:
            raise KeyError(f"placement targets unknown device {device_id!r}")
        models_on[device_id].append(spec.profiles[model_id])

    latencies: dict[int, float] = {}
    arrivals: dict[int, float] = {}

    def start_sample(k: int) -> None:
        arrivals[k] = sim.now

        def finish_fusion() -> None:
            done = fusion_cpu.acquire(
                spec.fusion_device.compute_seconds(spec.fusion_flops))
            sim.schedule_at(done, lambda: latencies.__setitem__(
                k, sim.now - arrivals[k]))

        live = {d: profiles for d, profiles in models_on.items()
                if d not in failed}
        expected = sum(len(p) for p in live.values())
        if expected == 0:
            finish_fusion()
            return
        barrier = Barrier(expected=expected, callback=finish_fusion)

        for device_id, profiles in live.items():
            device = device_by_id[device_id]
            for profile in profiles:
                _run_submodel(sim, device, profile, compute[device_id],
                              uplinks[device_id], topology, spec.input_bytes,
                              barrier)

    for k in range(num_samples):
        sim.schedule_at(arrivals_schedule[k], lambda k=k: start_sample(k))
    sim.run()

    if len(latencies) != num_samples:
        raise RuntimeError("simulation ended with unfinished samples")
    ordered = [latencies[k] for k in range(num_samples)]
    makespan = max(arrivals[k] + latencies[k] for k in range(num_samples))
    segments = {r.name: r.segments()
                for r in [*compute.values(), *uplinks.values()]}
    segments[fusion_cpu.name] = fusion_cpu.segments()
    return SimulationResult(
        latencies=ordered,
        makespan=makespan,
        device_busy={d: r.busy_seconds for d, r in compute.items()}
        | {spec.fusion_device.device_id: fusion_cpu.busy_seconds},
        link_busy={d: r.busy_seconds for d, r in uplinks.items()},
        busy_segments=segments,
        engine="event",
    )


def _run_submodel(sim: Simulator, device: DeviceModel, profile: SubModelProfile,
                  cpu: FifoResource, uplink: FifoResource,
                  topology: StarTopology, input_bytes: int,
                  barrier: Barrier) -> None:
    """Chain: (optional input receive) -> compute -> feature transfer -> barrier."""

    def after_input() -> None:
        compute_done = cpu.acquire(device.compute_seconds(profile.flops_per_sample))

        def after_compute() -> None:
            transfer = topology.transfer_seconds(device.device_id,
                                                 profile.feature_bytes)
            send_done = uplink.acquire(transfer)
            sim.schedule_at(send_done, barrier.arrive)

        sim.schedule_at(compute_done, after_compute)

    if input_bytes > 0:
        recv = uplink.acquire(topology.transfer_seconds(device.device_id,
                                                        input_bytes))
        sim.schedule_at(recv, after_input)
    else:
        after_input()


def single_device_latency(device: DeviceModel, flops: float) -> float:
    """Latency of running one monolithic model on one device (the paper's
    dotted baseline lines in Figs. 4–5)."""
    return device.compute_seconds(flops)


def utilization_report(result: SimulationResult) -> dict[str, float]:
    """Per-device compute utilization over the run's makespan."""
    if result.makespan <= 0:
        return {d: 0.0 for d in result.device_busy}
    return {d: min(1.0, busy / result.makespan)
            for d, busy in result.device_busy.items()}


def energy_report(spec: DeploymentSpec,
                  result: SimulationResult) -> dict[str, float]:
    """Per-device energy in joules, from executed MACs (Section III's
    energy-proportional-to-FLOPs model)."""
    from ..profiling.energy import JOULES_PER_MAC

    devices = {d.device_id: d for d in spec.devices}
    devices[spec.fusion_device.device_id] = spec.fusion_device
    report = {}
    for device_id, busy in result.device_busy.items():
        macs = busy * devices[device_id].macs_per_second
        report[device_id] = macs * JOULES_PER_MAC
    return report
