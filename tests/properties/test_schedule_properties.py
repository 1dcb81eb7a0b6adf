"""Property tests of Algorithm 1's head schedule over random fleets and
budgets: every sub-model gets the same ``hp``, that ``hp`` is the least
that fits, a larger budget never prunes more, and an unreachable budget
says which constraint failed."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assignment import try_greedy_assign
from repro.edge.device import DeviceModel
from repro.models.vit import ViTConfig
from repro.splitting.class_assignment import balanced_class_partition
from repro.splitting.schedule import (
    ScheduleInfeasible,
    footprint,
    plan_head_schedule,
)


def _feet(base, groups, hp):
    return [footprint(base, i, hp, group)
            for i, group in enumerate(groups)]


def _fits(base, groups, devices, budget, hp) -> bool:
    """Whether every sub-model at ``hp`` fits the budget and is placed."""
    feet = _feet(base, groups, hp)
    if sum(f.size_bytes for f in feet) > budget:
        return False
    return try_greedy_assign(devices, feet, num_samples=1) is not None


@st.composite
def instances(draw):
    heads = draw(st.sampled_from([2, 3, 4, 6, 8]))
    base = ViTConfig(image_size=8, patch_size=4, num_classes=10,
                     depth=draw(st.integers(1, 3)),
                     embed_dim=heads * draw(st.sampled_from([4, 8, 16])),
                     num_heads=heads)
    groups = balanced_class_partition(
        10, draw(st.integers(1, 5)),
        np.random.default_rng(draw(st.integers(0, 3))))
    # Sizes anchor every draw, so budgets and devices land on both sides
    # of the feasibility edges.
    smallest = _feet(base, groups, heads - 1)
    largest = _feet(base, groups, heads // 2)
    low = min(f.size_bytes for f in smallest)
    high = max(f.size_bytes for f in largest)
    cheap = min(f.flops_per_sample for f in smallest)
    costly = max(f.flops_per_sample for f in largest)
    devices = [DeviceModel(
        device_id=f"d{i}",
        memory_bytes=draw(st.integers(low // 2 + 1, 2 * high)),
        energy_flops=float(draw(st.integers(int(cheap) // 2 + 1,
                                            int(3 * costly) + 1))))
        for i in range(draw(st.integers(1, 2 * len(groups))))]
    budget = draw(st.integers(
        3 * sum(f.size_bytes for f in smallest) // 4,
        2 * sum(f.size_bytes for f in largest)))
    return base, groups, devices, budget


def _schedule(base, groups, devices, budget):
    return plan_head_schedule(base, groups, devices, budget, num_samples=1)


@settings(max_examples=120, deadline=None)
@given(instances())
def test_the_schedule_is_the_least_uniform_hp_that_fits(instance):
    base, groups, devices, budget = instance
    try:
        schedule = _schedule(base, groups, devices, budget)
    except ScheduleInfeasible:
        assert not any(_fits(base, groups, devices, budget, hp)
                       for hp in range(base.num_heads // 2, base.num_heads))
        return
    (hp,) = {m.hp for m in schedule.submodels}
    assert len(schedule.submodels) == len(groups)
    assert sum(m.size_bytes for m in schedule.submodels) <= budget
    assert sorted(schedule.plan.mapping) == [
        f"submodel-{i}" for i in range(len(groups))]
    # One head fewer breaks the budget or the placement.
    if hp > base.num_heads // 2:
        assert not _fits(base, groups, devices, budget, hp - 1)


@settings(max_examples=80, deadline=None)
@given(instances(), st.integers(0, 10 ** 6))
def test_a_larger_budget_never_prunes_more(instance, extra):
    base, groups, devices, budget = instance
    try:
        tight = _schedule(base, groups, devices, budget)
    except ScheduleInfeasible:
        return
    loose = _schedule(base, groups, devices, budget + extra)
    assert loose.submodels[0].hp <= tight.submodels[0].hp


@settings(max_examples=80, deadline=None)
@given(instances())
def test_an_unreachable_budget_names_what_failed(instance):
    base, groups, devices, budget = instance
    if any(_fits(base, groups, devices, budget, hp)
           for hp in range(base.num_heads // 2, base.num_heads)):
        return
    total = sum(f.size_bytes
                for f in _feet(base, groups, base.num_heads - 1))
    if total > budget:
        message = f"budget {budget} B unreachable even at maximum pruning"
    else:
        message = "greedy assignment failed at maximum pruning"
    with pytest.raises(ScheduleInfeasible, match=message):
        _schedule(base, groups, devices, budget)
