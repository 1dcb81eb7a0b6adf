"""Property tests of the assignment algorithms: any returned plan is
feasible, and the branch-and-bound optimum dominates greedy."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.assignment.greedy import try_greedy_assign
from repro.assignment.optimal import optimal_assign
from repro.assignment.problem import InfeasibleAssignment, validate_plan
from repro.edge.device import DeviceModel
from tests.oracles import sized_submodel


@st.composite
def instances(draw):
    num_devices = draw(st.integers(min_value=1, max_value=4))
    num_models = draw(st.integers(min_value=1, max_value=5))
    devices = [
        DeviceModel(device_id=f"d{i}",
                    memory_bytes=draw(st.integers(min_value=10, max_value=200)),
                    energy_flops=float(draw(st.integers(min_value=10,
                                                        max_value=300))))
        for i in range(num_devices)]
    models = [
        sized_submodel(f"m{j}",
                       draw(st.integers(min_value=1, max_value=80)),
                       float(draw(st.integers(min_value=1, max_value=100))))
        for j in range(num_models)]
    return devices, models


@settings(max_examples=80, deadline=None)
@given(instances())
def test_greedy_plans_are_always_feasible(instance):
    devices, models = instance
    plan = try_greedy_assign(devices, models, num_samples=1)
    if plan is not None:
        validate_plan(plan.mapping, devices, models, num_samples=1)


@settings(max_examples=50, deadline=None)
@given(instances())
def test_optimal_dominates_greedy(instance):
    devices, models = instance
    greedy = try_greedy_assign(devices, models, num_samples=1)
    if greedy is None:
        return
    optimal = optimal_assign(devices, models, num_samples=1)
    validate_plan(optimal.mapping, devices, models, num_samples=1)
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
    [DeviceModel("d0", memory_bytes=66, energy_flops=12.0),
     DeviceModel("d1", memory_bytes=10, energy_flops=10.0),
     DeviceModel("d2", memory_bytes=10, energy_flops=10.0)],
    [sized_submodel("m0", 1, 1.0),
     sized_submodel("m1", 11, 1.0),
     sized_submodel("m2", 11, 1.0),
     sized_submodel("m3", 44, 2.0)])


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
        validate_plan(plan.mapping, devices, models, num_samples=1)
