"""Data model for the partitioning/assignment optimization problem (Eq. 1).

Devices carry memory and energy (FLOPs) budgets; sub-models carry a size
and a per-sample FLOPs cost.  An assignment maps every sub-model to a
device subject to::

    L * e_j <= E_i          (energy of the hosting device)
    m_j <= M_i              (memory of the hosting device)
    sum_j m_j <= budget     (fleet-wide memory budget)

maximizing ``min_i (E_i - L * e_j)`` — the weakest device's residual
energy, a proxy for the worst-case inference latency.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class DeviceSpec:
    """An edge device's resource envelope (the paper's M_i and E_i)."""

    device_id: str
    memory_bytes: int
    energy_flops: float

    def __post_init__(self):
        if self.memory_bytes <= 0:
            raise ValueError("memory_bytes must be positive")
        if self.energy_flops <= 0:
            raise ValueError("energy_flops must be positive")


@dataclasses.dataclass(frozen=True)
class SubModelSpec:
    """Resource footprint of one sub-model (the paper's m_j and e_j)."""

    model_id: str
    size_bytes: int
    flops_per_sample: float
    classes: tuple[int, ...] = ()

    def workload_flops(self, num_samples: int) -> float:
        return self.flops_per_sample * num_samples


@dataclasses.dataclass
class AssignmentPlan:
    """A feasible mapping of sub-models to devices plus residual resources."""

    mapping: dict[str, str]                   # model_id -> device_id
    residual_memory: dict[str, int]           # device_id -> bytes left
    residual_energy: dict[str, float]         # device_id -> FLOPs left

    @property
    def objective(self) -> float:
        """The paper's objective: the minimum residual energy.

        The min ranges over devices that actually host a sub-model
        ("Model_j deploys on D_i" in Eq. 1) — otherwise the weakest idle
        device would make every feasible plan score identically.  Falls
        back to the global minimum when nothing is placed.
        """
        hosting = set(self.mapping.values())
        pool = [e for d, e in self.residual_energy.items() if d in hosting]
        if not pool:
            pool = list(self.residual_energy.values())
        return min(pool)

    def models_on(self, device_id: str) -> list[str]:
        return [m for m, d in self.mapping.items() if d == device_id]


class InfeasibleAssignment(Exception):
    """Raised when no assignment satisfies the constraints."""


def validate_plan(plan: AssignmentPlan, devices: list[DeviceSpec],
                  submodels: list[SubModelSpec], num_samples: int,
                  memory_budget: int | None = None) -> None:
    """Raise ``InfeasibleAssignment`` if the plan violates any constraint."""
    device_by_id = {d.device_id: d for d in devices}
    model_by_id = {m.model_id: m for m in submodels}
    if set(plan.mapping) != set(model_by_id):
        raise InfeasibleAssignment("plan must assign every sub-model exactly once")
    if memory_budget is not None:
        total = sum(m.size_bytes for m in submodels)
        if total > memory_budget:
            raise InfeasibleAssignment(
                f"total sub-model size {total} exceeds budget {memory_budget}")
    mem_used: dict[str, int] = {d: 0 for d in device_by_id}
    energy_used: dict[str, float] = {d: 0.0 for d in device_by_id}
    for model_id, device_id in plan.mapping.items():
        if device_id not in device_by_id:
            raise InfeasibleAssignment(f"unknown device {device_id!r}")
        model = model_by_id[model_id]
        mem_used[device_id] += model.size_bytes
        energy_used[device_id] += model.workload_flops(num_samples)
    for device_id, device in device_by_id.items():
        if mem_used[device_id] > device.memory_bytes:
            raise InfeasibleAssignment(
                f"device {device_id} over memory: {mem_used[device_id]} "
                f"> {device.memory_bytes}")
        if energy_used[device_id] > device.energy_flops:
            raise InfeasibleAssignment(
                f"device {device_id} over energy: {energy_used[device_id]:.3g} "
                f"> {device.energy_flops:.3g}")
