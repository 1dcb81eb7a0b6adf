"""Property tests of the assignment algorithms: any returned plan is
feasible, and the branch-and-bound optimum dominates greedy."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.assignment.greedy import try_greedy_assign
from repro.assignment.optimal import optimal_assign
from repro.assignment.problem import (
    DeviceSpec,
    InfeasibleAssignment,
    SubModelSpec,
    validate_plan,
)


@st.composite
def instances(draw):
    num_devices = draw(st.integers(min_value=1, max_value=4))
    num_models = draw(st.integers(min_value=1, max_value=5))
    devices = [
        DeviceSpec(device_id=f"d{i}",
                   memory_bytes=draw(st.integers(min_value=10, max_value=200)),
                   energy_flops=float(draw(st.integers(min_value=10,
                                                       max_value=300))))
        for i in range(num_devices)]
    models = [
        SubModelSpec(model_id=f"m{j}",
                     size_bytes=draw(st.integers(min_value=1, max_value=80)),
                     flops_per_sample=float(draw(st.integers(min_value=1,
                                                             max_value=100))))
        for j in range(num_models)]
    return devices, models


@settings(max_examples=80, deadline=None)
@given(instances())
def test_greedy_plans_are_always_feasible(instance):
    devices, models = instance
    plan = try_greedy_assign(devices, models, num_samples=1)
    if plan is not None:
        validate_plan(plan, devices, models, num_samples=1)


@settings(max_examples=50, deadline=None)
@given(instances())
def test_optimal_dominates_greedy(instance):
    devices, models = instance
    greedy = try_greedy_assign(devices, models, num_samples=1)
    if greedy is None:
        return
    optimal = optimal_assign(devices, models, num_samples=1)
    validate_plan(optimal, devices, models, num_samples=1)
    assert optimal.objective >= greedy.objective - 1e-9


@settings(max_examples=50, deadline=None)
@given(instances())
def test_greedy_finds_plan_when_optimal_does(instance):
    """Greedy may be suboptimal but on these generous instances it should
    not claim infeasibility while a trivially-valid plan exists: if every
    model fits alone on some device with full resources, greedy places it."""
    devices, models = instance
    total_flops = sum(m.flops_per_sample for m in models)
    total_size = sum(m.size_bytes for m in models)
    fits_everywhere = all(
        d.memory_bytes >= total_size and d.energy_flops >= total_flops
        for d in devices)
    if fits_everywhere:
        assert try_greedy_assign(devices, models, num_samples=1) is not None


# Greedy feasibility is not monotone in the workload: here Alg. 3 finds no
# plan for 1 sample but finds one for 2 (and 3).
_NON_MONOTONE = (
    [DeviceSpec("d0", memory_bytes=66, energy_flops=12.0),
     DeviceSpec("d1", memory_bytes=10, energy_flops=10.0),
     DeviceSpec("d2", memory_bytes=10, energy_flops=10.0)],
    [SubModelSpec("m0", size_bytes=1, flops_per_sample=1.0),
     SubModelSpec("m1", size_bytes=11, flops_per_sample=1.0),
     SubModelSpec("m2", size_bytes=11, flops_per_sample=1.0),
     SubModelSpec("m3", size_bytes=44, flops_per_sample=2.0)])


def test_greedy_feasibility_is_not_monotone_in_workload():
    devices, models = _NON_MONOTONE
    assert try_greedy_assign(devices, models, num_samples=1) is None
    assert try_greedy_assign(devices, models, num_samples=2) is not None


@settings(max_examples=50, deadline=None)
@given(instances(), st.integers(min_value=1, max_value=5))
@example(_NON_MONOTONE, 2)
def test_a_plan_for_more_samples_is_feasible_for_one(instance, num_samples):
    """A plan greedy finds for L samples also satisfies every constraint
    at 1 sample (greedy itself may still find none there)."""
    devices, models = instance
    plan = try_greedy_assign(devices, models, num_samples=num_samples)
    if plan is not None:
        validate_plan(plan, devices, models, num_samples=1)
