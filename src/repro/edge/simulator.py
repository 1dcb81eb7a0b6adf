"""Discrete-event simulation of ED-ViT distributed inference.

Models the paper's deployment (Fig. 3): N worker devices each hold one or
more sub-models; for every input sample each worker runs its sub-models
and ships the CLS features through its (tc-capped) link to the fusion
device, which concatenates them and runs the fusion MLP.  Per-sample
latency is the compute→transfer→fuse critical path; streams of samples
pipeline through each device's FIFO CPU and FIFO uplink.

One model, two evaluations of it that return equal results:
``engine="vector"`` (the default, and what :class:`repro.planning.Planner`
scoring and the capacity sweep use) advances the whole fleet's FIFO
recurrences with numpy (:mod:`repro.edge.fastsim`); ``engine="event"``
is :func:`_simulate_reference`, the same model written one request at a
time, against which the tests compare fastsim with ``==``.
"""

from __future__ import annotations

import dataclasses
import math
import statistics
from typing import Sequence

from .codec import get_codec
from .device import JOULES_PER_MAC, DeviceModel
from .network import StarTopology, uniform_star

ENGINES = ("event", "vector")


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

    def resolved_topology(self) -> StarTopology:
        if self.topology is not None:
            return self.topology
        ids = [d.device_id for d in self.devices] + [self.fusion_device.device_id]
        return uniform_star(ids)


@dataclasses.dataclass
class SimulationResult:
    latencies: list[float]                 # per-sample end-to-end seconds
    makespan: float
    device_busy: dict[str, float]          # service seconds per CPU
    link_busy: dict[str, float]            # service seconds per uplink

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


def _resolve_arrivals(num_samples: int, arrival_interval: float,
                      arrival_times: Sequence[float] | None) -> list[float]:
    """The absolute per-sample arrival times a run simulates.

    ``arrival_times`` (e.g. a :class:`repro.serving.traffic.ArrivalTrace`'s
    arrivals) overrides the uniform ``num_samples`` × ``arrival_interval``
    schedule; it must be non-empty, finite, non-negative and sorted, and
    so must the interval.
    """
    if not (math.isfinite(arrival_interval) and arrival_interval >= 0):
        raise ValueError("arrival_interval must be finite and non-negative")
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
                       engine: str = "vector",
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

    ``engine`` picks the evaluation: ``"vector"`` (numpy over the fleet,
    :func:`repro.edge.fastsim.simulate_star`) or ``"event"`` (one request
    at a time, :func:`_simulate_reference`).  Both return equal results.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; choose from {ENGINES}")
    arrivals = _resolve_arrivals(num_samples, arrival_interval, arrival_times)
    failed = set(failed_devices or ())
    known = {d.device_id for d in spec.devices}
    if not failed <= known:
        raise KeyError(f"failed devices not in fleet: {sorted(failed - known)}")
    models_on: dict[str, list[SubModelProfile]] = {d: [] for d in known}
    for model_id, device_id in spec.placement.items():
        if device_id not in models_on:
            raise KeyError(f"placement targets unknown device {device_id!r}")
        models_on[device_id].append(spec.profiles[model_id])
    # The devices that deliver features, each with its sub-models in
    # placement order: the lanes both evaluations walk.
    lanes = [(d, models_on[d.device_id]) for d in spec.devices
             if d.device_id not in failed and models_on[d.device_id]]
    if engine == "event":
        return _simulate_reference(spec, arrivals, lanes)
    from .fastsim import simulate_star
    return simulate_star(spec, arrivals, lanes)


def _simulate_reference(spec: DeploymentSpec, arrivals: list[float],
                        lanes: list[tuple[DeviceModel, list[SubModelProfile]]],
                        ) -> SimulationResult:
    """The model, one request at a time.

    Samples in arrival order; within one, each live device, then its
    sub-models in placement order.  A sub-model takes the device's CPU,
    then its uplink, each FIFO: ``finish = max(ready, free) + service``.
    The fusion barrier is the sample's last feature delivery (its arrival
    when nothing is live), then the fusion CPU, FIFO too.
    """
    topology = spec.resolved_topology()
    cpu_free = {d.device_id: 0.0 for d, _ in lanes}
    link_free = dict(cpu_free)
    device_busy = {d.device_id: 0.0 for d in spec.devices}
    link_busy = dict(device_busy)
    fusion_service = spec.fusion_device.compute_seconds(spec.fusion_flops)
    fusion_free = fusion_busy = 0.0
    latencies = []
    for arrival in arrivals:
        barrier = arrival
        for device, profiles in lanes:
            d = device.device_id
            for profile in profiles:
                compute = device.compute_seconds(profile.flops_per_sample)
                cpu_free[d] = max(arrival, cpu_free[d]) + compute
                device_busy[d] += compute
                send = topology.transfer_seconds(d, profile.feature_bytes)
                link_free[d] = max(cpu_free[d], link_free[d]) + send
                link_busy[d] += send
                barrier = max(barrier, link_free[d])
        fusion_free = max(barrier, fusion_free) + fusion_service
        fusion_busy += fusion_service
        latencies.append(fusion_free - arrival)
    device_busy[spec.fusion_device.device_id] = fusion_busy
    makespan = max(t + latency for t, latency in zip(arrivals, latencies))
    return SimulationResult(latencies=latencies, makespan=makespan,
                            device_busy=device_busy, link_busy=link_busy)


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
    devices = {d.device_id: d for d in spec.devices}
    devices[spec.fusion_device.device_id] = spec.fusion_device
    report = {}
    for device_id, busy in result.device_busy.items():
        macs = busy * devices[device_id].macs_per_second
        report[device_id] = macs * JOULES_PER_MAC
    return report
