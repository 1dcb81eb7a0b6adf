"""Online replanning: reassign a failed device's sub-models (Section VI).

When the serving layer marks a device down, its sub-models' feature slots
are zero-filled and accuracy drops by roughly that device's class share —
permanently, in the pre-planning architecture.  :func:`replan_on_failure`
instead re-runs greedy assignment for the orphaned sub-models over the
*residual* capacity of the surviving devices, producing a new
:class:`~repro.planning.plan.DeploymentPlan` whose mapping the executor
(:mod:`repro.planning.execute`) turns into freshly spawned workers — so
fusion recovers real features instead of zeros.
"""

from __future__ import annotations

import dataclasses

from ..assignment import InfeasibleAssignment, greedy_assign
from ..edge.device import DeviceModel
from ..edge.network import StarTopology
from .plan import DeploymentPlan
from .planner import score_plan


class ReplanInfeasible(RuntimeError):
    """Surviving devices cannot absorb the failed devices' sub-models."""


def residual_capacity(plan: DeploymentPlan,
                      down_devices: set[str]) -> list[DeviceModel]:
    """Surviving devices' capacity after the sub-models they already host.

    Devices with nothing left to give (zero or negative residual on either
    axis) are omitted — :class:`~repro.edge.device.DeviceModel` requires
    positive budgets, and they could never host an orphan anyway.
    """
    residual: list[DeviceModel] = []
    for device in plan.devices:
        if device.device_id in down_devices:
            continue
        hosted = [plan.submodel(m) for m in plan.models_on(device.device_id)]
        memory = device.memory_bytes - sum(m.size_bytes for m in hosted)
        energy = device.energy_flops - sum(
            m.flops_per_sample * plan.num_samples for m in hosted)
        if memory > 0 and energy > 0:
            residual.append(dataclasses.replace(
                device, memory_bytes=memory,
                energy_flops=energy))
    return residual


def replan_on_failure(plan: DeploymentPlan,
                      down_devices: set[str] | frozenset[str],
                      ) -> DeploymentPlan:
    """Reassign every sub-model hosted on ``down_devices`` onto survivors.

    Returns a new plan whose ``devices`` exclude the failed hardware,
    whose ``mapping`` places the orphaned sub-models into surviving
    residual capacity (largest first, most-residual-energy device first —
    the same Algorithm 3 greedy used at initial planning time), whose
    ``prediction`` is re-scored on the shrunken fleet, and whose
    ``history`` records the event.  Raises :class:`ReplanInfeasible` when
    the orphans cannot all be placed (callers then stay in zero-fill
    degraded mode).
    """
    down = set(down_devices)
    known = set(plan.device_ids) | {plan.fusion_device.device_id}
    if not down <= known:
        raise KeyError(f"unknown devices marked down: {sorted(down - known)}")
    if plan.fusion_device.device_id in down:
        raise ReplanInfeasible("the fusion device itself is down")
    survivors = [d for d in plan.devices if d.device_id not in down]
    if not survivors:
        raise ReplanInfeasible("no surviving devices")

    orphans = [plan.submodel(m) for m, dev in sorted(plan.mapping.items())
               if dev in down]
    try:
        moved = greedy_assign(residual_capacity(plan, down), orphans,
                              plan.num_samples)
    except InfeasibleAssignment as exc:
        raise ReplanInfeasible(
            f"orphaned sub-models do not fit in surviving capacity: {exc}"
        ) from exc

    mapping = {m: d for m, d in plan.mapping.items() if d not in down}
    mapping.update(moved.mapping)
    event = {
        "kind": "replan",
        "down_devices": sorted(down),
        "moved": dict(moved.mapping),
    }
    accuracy = plan.prediction.accuracy if plan.prediction else None
    new_plan = DeploymentPlan(
        num_classes=plan.num_classes,
        partition=[list(group) for group in plan.partition],
        submodels=list(plan.submodels),
        devices=survivors,
        mapping=mapping,
        fusion_device=plan.fusion_device,
        topology=StarTopology(device_links={
            d.device_id: plan.topology.link_of(d.device_id)
            for d in survivors + [plan.fusion_device]}),
        fusion_flops=plan.fusion_flops,
        fusion_config=dict(plan.fusion_config),
        num_samples=plan.num_samples,
        seed=plan.seed,
        codec=plan.codec,
        build=dict(plan.build),
        history=[dict(e) for e in plan.history] + [event],
    )
    new_plan.validate()
    # The moved sub-models run on shared devices now; re-score so the plan
    # is honest about the post-failure latency.  Accuracy carries over:
    # every feature slot is real again.
    new_plan.prediction = score_plan(new_plan, accuracy=accuracy)
    return new_plan
