"""Data-model and plan-validation tests."""

import pytest

from repro.assignment.problem import (
    AssignmentPlan,
    DeviceSpec,
    InfeasibleAssignment,
    SubModelSpec,
    validate_plan,
)


def device(i, mem=100, energy=100.0):
    return DeviceSpec(device_id=f"d{i}", memory_bytes=mem, energy_flops=energy)


def submodel(i, size=10, flops=10.0):
    return SubModelSpec(model_id=f"m{i}", size_bytes=size, flops_per_sample=flops)


def plan_for(mapping, devices):
    return AssignmentPlan(mapping=mapping,
                          residual_memory={d.device_id: 0 for d in devices},
                          residual_energy={d.device_id: 1.0 for d in devices})


class TestSpecs:
    def test_device_rejects_nonpositive_memory(self):
        with pytest.raises(ValueError):
            DeviceSpec("x", memory_bytes=0, energy_flops=1.0)

    def test_device_rejects_nonpositive_energy(self):
        with pytest.raises(ValueError):
            DeviceSpec("x", memory_bytes=1, energy_flops=0.0)

    def test_workload_flops(self):
        assert submodel(0, flops=5.0).workload_flops(4) == 20.0


class TestAssignmentPlan:
    def test_objective_is_min_residual(self):
        plan = AssignmentPlan(mapping={}, residual_memory={},
                              residual_energy={"a": 5.0, "b": 2.0})
        assert plan.objective == 2.0

    def test_models_on(self):
        plan = plan_for({"m0": "d0", "m1": "d0", "m2": "d1"},
                        [device(0), device(1)])
        assert sorted(plan.models_on("d0")) == ["m0", "m1"]


class TestValidatePlan:
    def test_accepts_feasible(self):
        devices = [device(0), device(1)]
        models = [submodel(0), submodel(1)]
        plan = plan_for({"m0": "d0", "m1": "d1"}, devices)
        validate_plan(plan, devices, models, num_samples=1)

    def test_rejects_incomplete_mapping(self):
        devices = [device(0)]
        models = [submodel(0), submodel(1)]
        plan = plan_for({"m0": "d0"}, devices)
        with pytest.raises(InfeasibleAssignment):
            validate_plan(plan, devices, models, num_samples=1)

    def test_rejects_unknown_device(self):
        devices = [device(0)]
        models = [submodel(0)]
        plan = plan_for({"m0": "ghost"}, devices)
        with pytest.raises(InfeasibleAssignment):
            validate_plan(plan, devices, models, num_samples=1)

    def test_rejects_memory_overflow(self):
        devices = [device(0, mem=15)]
        models = [submodel(0, size=10), submodel(1, size=10)]
        plan = plan_for({"m0": "d0", "m1": "d0"}, devices)
        with pytest.raises(InfeasibleAssignment):
            validate_plan(plan, devices, models, num_samples=1)

    def test_rejects_energy_overflow(self):
        devices = [device(0, energy=15.0)]
        models = [submodel(0, flops=10.0)]
        plan = plan_for({"m0": "d0"}, devices)
        with pytest.raises(InfeasibleAssignment):
            validate_plan(plan, devices, models, num_samples=2)

    def test_rejects_fleet_budget_overflow(self):
        devices = [device(0)]
        models = [submodel(0, size=60)]
        plan = plan_for({"m0": "d0"}, devices)
        with pytest.raises(InfeasibleAssignment):
            validate_plan(plan, devices, models, num_samples=1,
                          memory_budget=50)

    def test_accepts_multiple_models_per_device(self):
        devices = [device(0, mem=100, energy=100.0)]
        models = [submodel(0, size=10, flops=10.0),
                  submodel(1, size=10, flops=10.0)]
        plan = plan_for({"m0": "d0", "m1": "d0"}, devices)
        validate_plan(plan, devices, models, num_samples=1)
