"""Optimal-assignment (branch-and-bound) tests and greedy-gap checks."""

import pytest

from repro.assignment.greedy import greedy_assign
from repro.assignment import optimal
from repro.assignment.optimal import optimal_assign
from tests.oracles import brute_force_assign, sized_submodel
from repro.assignment.problem import InfeasibleAssignment, validate_plan
from repro.edge.device import DeviceModel


def device(i, mem=100, energy=100.0):
    return DeviceModel(device_id=f"d{i}", memory_bytes=mem, energy_flops=energy)


def submodel(i, size=10, flops=10.0):
    return sized_submodel(f"m{i}", size, flops)


class TestOptimalAssign:
    def test_matches_brute_force_objective(self):
        devices = [device(0, energy=100.0), device(1, energy=70.0),
                   device(2, energy=40.0)]
        models = [submodel(0, flops=30.0), submodel(1, flops=20.0),
                  submodel(2, flops=10.0)]
        bb = optimal_assign(devices, models, num_samples=1)
        bf = brute_force_assign(devices, models, num_samples=1)
        assert bb.objective == pytest.approx(bf.objective)

    def test_balances_load_better_than_worst_case(self):
        devices = [device(0, energy=100.0), device(1, energy=100.0)]
        models = [submodel(0, flops=60.0), submodel(1, flops=30.0)]
        plan = optimal_assign(devices, models, num_samples=1)
        # Optimal puts them on different devices: min residual = 40.
        assert plan.objective == pytest.approx(40.0)
        validate_plan(plan.mapping, devices, models, num_samples=1)

    def test_optimal_at_least_as_good_as_greedy(self):
        devices = [device(0, energy=90.0), device(1, energy=60.0),
                   device(2, energy=60.0)]
        models = [submodel(i, flops=f) for i, f in enumerate([50, 40, 30, 20])]
        greedy = greedy_assign(devices, models, num_samples=1)
        optimal = optimal_assign(devices, models, num_samples=1)
        assert optimal.objective >= greedy.objective - 1e-9

    def test_respects_memory(self):
        devices = [device(0, mem=10, energy=1000.0), device(1, mem=100)]
        models = [submodel(0, size=50)]
        plan = optimal_assign(devices, models, num_samples=1)
        assert plan.mapping["m0"] == "d1"

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleAssignment):
            optimal_assign([device(0, mem=1)], [submodel(0, size=50)], 1)

    def test_no_devices_raises(self):
        with pytest.raises(InfeasibleAssignment):
            optimal_assign([], [submodel(0)], 1)

    def test_state_limit_guard(self, monkeypatch):
        monkeypatch.setattr(optimal, "MAX_STATES", 10)
        devices = [device(i) for i in range(6)]
        models = [submodel(i, size=1, flops=1.0) for i in range(8)]
        with pytest.raises(InfeasibleAssignment):
            optimal_assign(devices, models, num_samples=1)


class TestBruteForce:
    def test_none_when_infeasible(self):
        assert brute_force_assign([device(0, mem=1)],
                                  [submodel(0, size=5)], 1) is None

    def test_single_choice(self):
        plan = brute_force_assign([device(0)], [submodel(0)], 1)
        assert plan.mapping == {"m0": "d0"}


class TestGreedyOptimalityGap:
    def test_gap_on_random_instances(self):
        # Greedy should be within 50% of optimal on small random instances
        # (it is usually optimal on homogeneous fleets).
        import numpy as np

        rng = np.random.default_rng(0)
        gaps = []
        for trial in range(10):
            devices = [device(i, energy=float(rng.integers(50, 150)))
                       for i in range(3)]
            models = [submodel(i, flops=float(rng.integers(5, 40)))
                      for i in range(4)]
            try:
                g = greedy_assign(devices, models, num_samples=1).objective
                o = optimal_assign(devices, models, num_samples=1).objective
            except InfeasibleAssignment:
                continue
            gaps.append((o - g) / max(o, 1e-9))
        assert gaps, "all random instances infeasible?"
        assert max(gaps) < 0.5
