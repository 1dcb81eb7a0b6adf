"""Trace-driven capacity planning over the vectorized fleet simulator.

Answers the deployment question ROADMAP item 5 poses: *how many devices
of which class does a workload need to meet a latency SLO, and at what
cost?*  A fleet is modelled as ``R`` independent ED-ViT replicas — each
replica is ``G`` worker devices plus one fusion device of the same class
— behind a round-robin front-end that deals the arrival trace across
replicas.  Every replica is scored with the vectorised DES
(:mod:`repro.edge.fastsim`, ``simulate_inference``'s default engine),
which is what makes sweeping thousand-device fleets × traffic traces ×
codec/quant choices interactive instead of hours-long.

:func:`plan_capacity` sweeps the configuration grid, plans each replica
with :meth:`Planner.plan_vit` — the plan that would be served, so a
memory-starved class gets Algorithm 1's extra head pruning — and returns
every scored point plus the cost/latency Pareto frontier.
:func:`cheapest_within_slo` picks the cheapest frontier point meeting a
p95 target.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from ..edge.device import PI4B_MACS_PER_SECOND, PI4B_MEMORY_BYTES, DeviceModel
from ..edge.simulator import DeploymentSpec, simulate_inference
from ..models.vit import vit_base_config
from ..serving.telemetry import percentile
from ..serving.traffic import ArrivalTrace
from .planner import Planner, PlannerConfig, PlanningError


@dataclasses.dataclass(frozen=True)
class DeviceClass:
    """A purchasable device tier: throughput, memory and unit cost."""

    name: str
    speed_factor: float                # × Raspberry Pi 4B MAC throughput
    memory_bytes: int
    unit_cost_usd: float

    @property
    def macs_per_second(self) -> float:
        return PI4B_MACS_PER_SECOND * self.speed_factor

    def device(self, device_id: str) -> DeviceModel:
        return DeviceModel(device_id=device_id,
                           macs_per_second=self.macs_per_second,
                           memory_bytes=self.memory_bytes)


# Street prices (2024-ish USD) for the boards the paper's testbed story
# spans; speed factors are rough MAC-throughput ratios vs the Pi 4B.
DEVICE_CLASSES: dict[str, DeviceClass] = {
    "pi-zero2": DeviceClass("pi-zero2", speed_factor=0.35,
                            memory_bytes=512 * 2 ** 20, unit_cost_usd=15.0),
    "pi4b": DeviceClass("pi4b", speed_factor=1.0,
                        memory_bytes=PI4B_MEMORY_BYTES, unit_cost_usd=55.0),
    "pi5": DeviceClass("pi5", speed_factor=2.0,
                       memory_bytes=8 * 2 ** 30, unit_cost_usd=80.0),
    "orin-nano": DeviceClass("orin-nano", speed_factor=8.0,
                             memory_bytes=8 * 2 ** 30, unit_cost_usd=249.0),
}

@dataclasses.dataclass(frozen=True)
class CapacityPoint:
    """One scored fleet configuration."""

    device_class: str
    fleet_size: int                    # requested fleet budget (devices)
    devices_used: int                  # replicas × (group_count + 1)
    replicas: int
    group_count: int                   # workers per replica
    codec: str
    quant: str                         # "fp32" or "int8"
    cost_usd: float
    feasible: bool
    reason: str = ""                   # why infeasible (empty when feasible)
    p50_s: float | None = None
    p95_s: float | None = None
    max_s: float | None = None
    mean_s: float | None = None
    throughput_rps: float | None = None
    worker_utilization: float | None = None

    def row(self) -> dict:
        def ms(v: float | None) -> float | None:
            return None if v is None else round(v * 1e3, 2)

        return {
            "class": self.device_class,
            "fleet": self.fleet_size,
            "used": self.devices_used,
            "replicas": self.replicas,
            "groups": self.group_count,
            "codec": self.codec,
            "quant": self.quant,
            "cost_usd": round(self.cost_usd, 2),
            "feasible": self.feasible,
            "reason": self.reason,
            "p50_ms": ms(self.p50_s),
            "p95_ms": ms(self.p95_s),
            "max_ms": ms(self.max_s),
            "throughput_rps": None if self.throughput_rps is None
            else round(self.throughput_rps, 2),
            "util": None if self.worker_utilization is None
            else round(self.worker_utilization, 3),
        }


@dataclasses.dataclass
class CapacityReport:
    """Everything :func:`plan_capacity` learned about one trace."""

    trace_requests: int
    trace_duration_s: float
    trace_mean_rps: float
    points: list[CapacityPoint]
    frontier: list[CapacityPoint]      # cost-ascending Pareto front

    def feasible_points(self) -> list[CapacityPoint]:
        return [p for p in self.points if p.feasible]

    def to_json(self) -> dict:
        return {
            "trace": {
                "num_requests": self.trace_requests,
                "duration_s": round(self.trace_duration_s, 3),
                "mean_rps": round(self.trace_mean_rps, 2),
            },
            "points": [p.row() for p in self.points],
            "frontier": [p.row() for p in self.frontier],
        }


def pareto_frontier(points: Sequence[CapacityPoint]) -> list[CapacityPoint]:
    """Non-dominated feasible points over (cost_usd, p95), cost-ascending.

    A point is dominated when another feasible point costs no more AND has
    a p95 no higher (with at least one strict).  Along the returned list
    cost strictly increases and p95 strictly decreases.
    """
    feasible = [p for p in points if p.feasible and p.p95_s is not None]
    feasible.sort(key=lambda p: (p.cost_usd, p.p95_s))
    frontier: list[CapacityPoint] = []
    best_p95 = float("inf")
    for point in feasible:
        if point.p95_s < best_p95:
            frontier.append(point)
            best_p95 = point.p95_s
    return frontier


def cheapest_within_slo(report: CapacityReport,
                        slo_p95_s: float) -> CapacityPoint | None:
    """The cheapest feasible point meeting the p95 target, if any."""
    meeting = [p for p in report.feasible_points()
               if p.p95_s is not None and p.p95_s <= slo_p95_s]
    return min(meeting, key=lambda p: (p.cost_usd, p.p95_s), default=None)


def plan_capacity(trace: ArrivalTrace,
                  device_classes: Sequence[str] = ("pi4b", "pi5"),
                  fleet_sizes: Sequence[int] = (12, 60, 300, 1000),
                  group_counts: Sequence[int] = (2, 3, 5),
                  codecs: Sequence[str] = ("raw32", "q8")) -> CapacityReport:
    """Sweep fleet configurations against ``trace``; score every point.

    Each (class, fleet size, group count, codec) combination carves the
    fleet into ``fleet_size // (group_count + 1)`` replicas, deals the
    trace round-robin across them, and simulates every replica with the
    vectorized engine.  Memory-infeasible or replica-less combinations are
    kept in the report (``feasible=False``) so sweeps are auditable.
    """
    for name in device_classes:
        if name not in DEVICE_CLASSES:
            raise KeyError(f"unknown device class {name!r}; "
                           f"choose from {sorted(DEVICE_CLASSES)}")
    # Lazy: core.experiments plans through this package.
    from ..core.experiments import PAPER_BUDGETS_MB, budget_bytes

    base = vit_base_config(num_classes=10)
    budget = budget_bytes(PAPER_BUDGETS_MB["vit-base"])
    points: list[CapacityPoint] = []
    for class_name in device_classes:
        device_class = DEVICE_CLASSES[class_name]
        for group_count in group_counts:
            workers = [device_class.device(f"{class_name}-{i}")
                       for i in range(group_count)]
            fusion = device_class.device(f"{class_name}-fusion")
            for codec in codecs:
                planner = Planner(workers, fusion, config=PlannerConfig(
                    codec=codec, memory_budget_bytes=budget))
                try:
                    plan = planner.plan_vit(base, num_groups=group_count)
                except PlanningError as exc:
                    for fleet_size in fleet_sizes:
                        points.append(CapacityPoint(
                            device_class=class_name, fleet_size=fleet_size,
                            devices_used=0, replicas=0,
                            group_count=group_count, codec=codec,
                            quant="-", cost_usd=0.0, feasible=False,
                            reason=str(exc)))
                    continue
                spec = plan.deployment_spec()
                for fleet_size in fleet_sizes:
                    points.append(_score_point(
                        trace, device_class, fleet_size, group_count,
                        codec, plan.submodels[0].quant, spec))
    return CapacityReport(
        trace_requests=trace.num_requests,
        trace_duration_s=trace.duration,
        trace_mean_rps=trace.mean_rps,
        points=points,
        frontier=pareto_frontier(points),
    )


def _score_point(trace: ArrivalTrace, device_class: DeviceClass,
                 fleet_size: int, group_count: int, codec: str, quant: str,
                 spec: DeploymentSpec) -> CapacityPoint:
    per_replica = group_count + 1
    replicas = fleet_size // per_replica
    if replicas < 1:
        return CapacityPoint(
            device_class=device_class.name, fleet_size=fleet_size,
            devices_used=0, replicas=0, group_count=group_count,
            codec=codec, quant=quant, cost_usd=0.0, feasible=False,
            reason=f"fleet of {fleet_size} cannot host one "
                   f"{per_replica}-device replica")
    # More replicas than requests would leave some idle (and an empty
    # shard is not a valid trace) — extra devices stay unbought.
    replicas = min(replicas, trace.num_requests)
    devices_used = replicas * per_replica
    cost = devices_used * device_class.unit_cost_usd

    latencies: list[float] = []
    makespan = 0.0
    busy = 0.0
    for shard in trace.split_round_robin(replicas):
        result = simulate_inference(spec, arrival_times=shard.arrivals)
        latencies.extend(result.latencies)
        makespan = max(makespan, result.makespan)
        busy += sum(result.device_busy[d.device_id] for d in spec.devices)
    throughput = len(latencies) / makespan if makespan > 0 else 0.0
    worker_seconds = replicas * group_count * makespan
    return CapacityPoint(
        device_class=device_class.name, fleet_size=fleet_size,
        devices_used=devices_used, replicas=replicas,
        group_count=group_count, codec=codec, quant=quant,
        cost_usd=cost, feasible=True,
        p50_s=percentile(latencies, 50),
        p95_s=percentile(latencies, 95),
        max_s=max(latencies),
        mean_s=sum(latencies) / len(latencies),
        throughput_rps=throughput,
        worker_utilization=(busy / worker_seconds) if worker_seconds > 0
        else 0.0,
    )
