"""Trace-driven capacity planning: sweeps, frontier, feasibility."""

import pytest

from repro.planning import Planner
from repro.planning.capacity import (
    DEVICE_CLASSES,
    CapacityPoint,
    DeviceClass,
    cheapest_within_slo,
    pareto_frontier,
    plan_capacity,
)
from repro.serving.traffic import poisson_trace


@pytest.fixture(scope="module")
def report():
    trace = poisson_trace(rate_rps=30, duration_s=10, seed=0)
    return plan_capacity(trace, device_classes=("pi4b", "pi5"),
                         fleet_sizes=(12, 120), group_counts=(2, 3),
                         codecs=("raw32",))


class TestPlanCapacity:
    def test_sweep_covers_the_grid(self, report):
        assert len(report.points) == 2 * 2 * 2  # classes x fleets x groups
        assert all(isinstance(p, CapacityPoint) for p in report.points)

    def test_feasible_points_are_scored(self, report):
        for p in report.feasible_points():
            assert p.p50_s <= p.p95_s <= p.max_s
            assert p.throughput_rps > 0
            assert 0 <= p.worker_utilization <= 1
            assert p.devices_used == p.replicas * (p.group_count + 1)
            assert p.cost_usd == pytest.approx(
                p.devices_used * DEVICE_CLASSES[p.device_class].unit_cost_usd)

    def test_more_devices_never_hurt_p95(self, report):
        by_config = {}
        for p in report.feasible_points():
            by_config.setdefault(
                (p.device_class, p.group_count, p.codec), []).append(p)
        pairs = 0
        for series in by_config.values():
            series.sort(key=lambda p: p.devices_used)
            for smaller, bigger in zip(series, series[1:]):
                assert bigger.p95_s <= smaller.p95_s * 1.0001
                pairs += 1
        assert pairs == 4              # one per (class, groups) config

    def test_faster_class_is_faster(self, report):
        def p95(cls):
            return min(p.p95_s for p in report.feasible_points()
                       if p.device_class == cls)
        assert p95("pi5") < p95("pi4b")

    def test_report_serializes_without_nan(self, report):
        import json
        payload = json.dumps(report.to_json(), allow_nan=False)
        assert '"frontier"' in payload

    def test_unknown_class_rejected(self):
        trace = poisson_trace(10, 2, seed=0)
        with pytest.raises(KeyError, match="unknown device class"):
            plan_capacity(trace, device_classes=("quantum",))

    def test_tiny_fleet_is_infeasible_not_crashing(self):
        trace = poisson_trace(10, 2, seed=0)
        report = plan_capacity(trace, device_classes=("pi4b",),
                               fleet_sizes=(2,), group_counts=(5,),
                               codecs=("raw32",))
        (point,) = report.points
        assert not point.feasible
        assert "replica" in point.reason

    @staticmethod
    def _sweep_g5(monkeypatch, memory_mb):
        """One G=5 point on pi4b and one on a ``memory_mb`` class, plus
        the plans the sweep drew them from."""
        starved = DeviceClass("starved", speed_factor=1.0,
                              memory_bytes=memory_mb * 2 ** 20,
                              unit_cost_usd=55.0)
        monkeypatch.setitem(DEVICE_CLASSES, starved.name, starved)
        plans = []
        plan_vit = Planner.plan_vit

        def recording_plan_vit(self, *args, **kwargs):
            plans.append(plan_vit(self, *args, **kwargs))
            return plans[-1]

        monkeypatch.setattr(Planner, "plan_vit", recording_plan_vit)
        report = plan_capacity(poisson_trace(5, 2, seed=0),
                               device_classes=("pi4b", "starved"),
                               fleet_sizes=(6,), group_counts=(5,),
                               codecs=("raw32",))
        return report.points, plans

    def test_memory_starved_class_prunes_more_heads(self, monkeypatch):
        # 20 MB per device: Algorithm 1 prunes past pi4b's schedule until
        # every fp32 sub-model fits, instead of falling back to int8.
        (pi4b, starved), (pi4b_plan, starved_plan) = self._sweep_g5(
            monkeypatch, 20)
        assert pi4b.feasible and starved.feasible
        assert starved.quant == "fp32"
        assert all(sub.size_bytes <= 20 * 2 ** 20
                   for sub in starved_plan.submodels)
        assert (min(sub.hp for sub in starved_plan.submodels)
                > max(sub.hp for sub in pi4b_plan.submodels))

    def test_class_too_small_for_any_plan_is_infeasible(self, monkeypatch):
        (pi4b, starved), _ = self._sweep_g5(monkeypatch, 2)
        assert pi4b.feasible
        assert not starved.feasible and starved.quant == "-"
        assert starved.reason.startswith("no feasible plan for N=5")

    def test_replicas_capped_by_trace_size(self):
        trace = poisson_trace(2, 1, seed=3)  # very few requests
        report = plan_capacity(trace, device_classes=("pi4b",),
                               fleet_sizes=(1000,), group_counts=(2,),
                               codecs=("raw32",))
        (point,) = report.points
        assert point.feasible
        assert point.replicas <= trace.num_requests
        assert point.devices_used < 1000


class TestFrontier:
    def test_frontier_is_pareto(self, report):
        costs = [p.cost_usd for p in report.frontier]
        p95s = [p.p95_s for p in report.frontier]
        assert len(costs) >= 2
        assert costs == sorted(costs)
        assert all(b > a for a, b in zip(costs, costs[1:]))
        assert all(b < a for a, b in zip(p95s, p95s[1:]))

    def test_frontier_points_are_undominated(self, report):
        for f in report.frontier:
            for p in report.feasible_points():
                dominates = (p.cost_usd <= f.cost_usd and p.p95_s < f.p95_s) \
                    or (p.cost_usd < f.cost_usd and p.p95_s <= f.p95_s)
                assert not dominates

    def test_pareto_frontier_ignores_infeasible(self):
        infeasible = CapacityPoint(
            device_class="pi4b", fleet_size=1, devices_used=0, replicas=0,
            group_count=2, codec="raw32", quant="-", cost_usd=0.0,
            feasible=False, reason="too small")
        assert pareto_frontier([infeasible]) == []

    def test_cheapest_within_slo(self, report):
        loosest = max(p.p95_s for p in report.feasible_points())
        best = cheapest_within_slo(report, loosest)
        assert best is not None
        assert best.cost_usd == min(p.cost_usd
                                    for p in report.feasible_points())
        assert cheapest_within_slo(report, 1e-9) is None
