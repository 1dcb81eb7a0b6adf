"""Exhaustive optimal assignment — a reference for the greedy heuristic.

Section IV-D frames assignment as a 0-1-knapsack-style problem.  For the
small instances in the benchmarks (≤ 10 sub-models, ≤ 10 devices) we can
enumerate assignments with branch-and-bound and report the true optimum of
``max min_i (E_i - L·e_j)``, quantifying the greedy algorithm's optimality
gap (an ablation DESIGN.md calls out).
"""

from __future__ import annotations

from ..edge.device import DeviceModel
from .problem import AssignmentPlan, InfeasibleAssignment, PlannedSubModel

# Search states explored before the exact search gives up.
MAX_STATES = 2_000_000


def optimal_assign(devices: list[DeviceModel],
                   submodels: list[PlannedSubModel],
                   num_samples: int) -> AssignmentPlan:
    """Exact search over assignments maximizing the minimum residual energy.

    Branch-and-bound over sub-models in decreasing workload order; prunes
    branches whose (optimistic) objective cannot beat the incumbent.
    Raises :class:`InfeasibleAssignment` when no feasible assignment exists
    or ``MAX_STATES`` is exceeded.
    """
    if not devices:
        raise InfeasibleAssignment("no devices available")
    order = sorted(submodels, key=lambda m: m.flops_per_sample, reverse=True)
    device_ids = [d.device_id for d in devices]
    base_memory = {d.device_id: d.memory_bytes for d in devices}
    base_energy = {d.device_id: float(d.energy_flops) for d in devices}

    best_plan: AssignmentPlan | None = None
    best_objective = float("-inf")
    states = 0

    def recurse(idx: int, memory: dict[str, int], energy: dict[str, float],
                mapping: dict[str, str]) -> None:
        nonlocal best_plan, best_objective, states
        states += 1
        if states > MAX_STATES:
            raise InfeasibleAssignment("optimal search exceeded state limit")
        hosting = set(mapping.values())
        current_min = min((energy[d] for d in hosting), default=float("inf"))
        if current_min <= best_objective:
            return  # placing more models can only lower the minimum
        if idx == len(order):
            plan = AssignmentPlan(mapping=dict(mapping),
                                  residual_memory=dict(memory),
                                  residual_energy=dict(energy))
            best_objective = plan.objective
            best_plan = plan
            return
        model = order[idx]
        need = model.flops_per_sample * num_samples
        # Deduplicate symmetric devices (same residual state) to cut search.
        seen: set[tuple[int, float]] = set()
        for device_id in device_ids:
            state = (memory[device_id], energy[device_id])
            if state in seen:
                continue
            seen.add(state)
            if memory[device_id] < model.size_bytes or energy[device_id] < need:
                continue
            memory[device_id] -= model.size_bytes
            energy[device_id] -= need
            mapping[model.model_id] = device_id
            recurse(idx + 1, memory, energy, mapping)
            del mapping[model.model_id]
            memory[device_id] += model.size_bytes
            energy[device_id] += need

    recurse(0, dict(base_memory), dict(base_energy), {})
    if best_plan is None:
        raise InfeasibleAssignment("no feasible assignment exists")
    return best_plan
