"""Data-model and plan-validation tests."""

import pytest

from repro.assignment.problem import (
    AssignmentPlan,
    InfeasibleAssignment,
    validate_plan,
)
from repro.edge.device import DeviceModel
from tests.oracles import sized_submodel


def device(i, mem=100, energy=100.0):
    return DeviceModel(device_id=f"d{i}", memory_bytes=mem, energy_flops=energy)


def submodel(i, size=10, flops=10.0):
    return sized_submodel(f"m{i}", size, flops)


class TestAssignmentPlan:
    def test_objective_is_min_residual(self):
        plan = AssignmentPlan(mapping={}, residual_memory={},
                              residual_energy={"a": 5.0, "b": 2.0})
        assert plan.objective == 2.0


class TestValidatePlan:
    def test_accepts_feasible(self):
        devices = [device(0), device(1)]
        models = [submodel(0), submodel(1)]
        mapping = {"m0": "d0", "m1": "d1"}
        validate_plan(mapping, devices, models, num_samples=1)

    def test_rejects_incomplete_mapping(self):
        devices = [device(0)]
        models = [submodel(0), submodel(1)]
        mapping = {"m0": "d0"}
        with pytest.raises(InfeasibleAssignment):
            validate_plan(mapping, devices, models, num_samples=1)

    def test_rejects_duplicate_model_ids(self):
        devices = [device(0)]
        models = [submodel(0), submodel(0)]
        mapping = {"m0": "d0"}
        with pytest.raises(InfeasibleAssignment, match="exactly once"):
            validate_plan(mapping, devices, models, num_samples=1)

    def test_rejects_unknown_device(self):
        devices = [device(0)]
        models = [submodel(0)]
        mapping = {"m0": "ghost"}
        with pytest.raises(InfeasibleAssignment):
            validate_plan(mapping, devices, models, num_samples=1)

    def test_rejects_memory_overflow(self):
        devices = [device(0, mem=15)]
        models = [submodel(0, size=10), submodel(1, size=10)]
        mapping = {"m0": "d0", "m1": "d0"}
        with pytest.raises(InfeasibleAssignment):
            validate_plan(mapping, devices, models, num_samples=1)

    def test_rejects_energy_overflow(self):
        devices = [device(0, energy=15.0)]
        models = [submodel(0, flops=10.0)]
        mapping = {"m0": "d0"}
        with pytest.raises(InfeasibleAssignment):
            validate_plan(mapping, devices, models, num_samples=2)

    def test_accepts_multiple_models_per_device(self):
        devices = [device(0, mem=100, energy=100.0)]
        models = [submodel(0, size=10, flops=10.0),
                  submodel(1, size=10, flops=10.0)]
        mapping = {"m0": "d0", "m1": "d0"}
        validate_plan(mapping, devices, models, num_samples=1)
