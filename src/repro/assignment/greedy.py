"""Algorithm 3 — greedy sub-model-to-device assignment.

Sub-models are sorted by computation overhead (descending) and each is
placed on the device with the most residual energy; devices that cannot
host the current sub-model are skipped *for that sub-model only*.  Multiple
sub-models may share a device when resources allow, matching Section IV-D
("multiple sub-models can be deployed on a single device").

The paper's pseudocode advances to the next sub-model after discarding a
device; read literally that would leave the current sub-model unplaced, so
— as the surrounding prose clearly intends — we keep trying the remaining
devices for the *current* sub-model until it is placed or no devices
remain.  A device that cannot host the current (large) sub-model may still
have room for a later, smaller one — sub-models are visited largest-first
— so rejection must never remove the device from the fleet.
"""

from __future__ import annotations

from ..edge.device import DeviceModel
from .problem import AssignmentPlan, InfeasibleAssignment, PlannedSubModel


def greedy_assign(devices: list[DeviceModel],
                  submodels: list[PlannedSubModel],
                  num_samples: int) -> AssignmentPlan:
    """Run Algorithm 3; raises :class:`InfeasibleAssignment` on failure."""
    if not devices:
        raise InfeasibleAssignment("no devices available")

    residual_memory = {d.device_id: d.memory_bytes for d in devices}
    residual_energy = {d.device_id: float(d.energy_flops) for d in devices}
    mapping: dict[str, str] = {}

    # Line 1: sort by computation overhead, highest first.
    order = sorted(submodels, key=lambda m: m.flops_per_sample, reverse=True)

    for model in order:
        need_energy = model.flops_per_sample * num_samples
        placed = False
        # Candidates are skipped per sub-model, never dropped globally: a
        # device too small for this sub-model can still host a later one.
        candidates = sorted(residual_memory)
        while candidates and not placed:
            # Line 3: the device with maximum residual energy (ties broken
            # by device id, so plans are reproducible across processes).
            best = max(candidates, key=lambda d: residual_energy[d])
            if (residual_memory[best] >= model.size_bytes
                    and residual_energy[best] >= need_energy):
                residual_memory[best] -= model.size_bytes
                residual_energy[best] -= need_energy
                mapping[model.model_id] = best
                placed = True
            else:
                # Line 8: skip the device for this sub-model only.
                candidates.remove(best)
        if not placed:
            raise InfeasibleAssignment(
                f"sub-model {model.model_id} (size={model.size_bytes}, "
                f"workload={need_energy:.3g}) cannot be placed on any device")

    return AssignmentPlan(mapping=mapping,
                          residual_memory=residual_memory,
                          residual_energy=residual_energy)


def try_greedy_assign(devices: list[DeviceModel],
                      submodels: list[PlannedSubModel],
                      num_samples: int) -> AssignmentPlan | None:
    """Algorithm 3 returning ``None`` instead of raising (Algorithm 1's MA=∅)."""
    try:
        return greedy_assign(devices, submodels, num_samples)
    except InfeasibleAssignment:
        return None
