"""Data model for the partitioning/assignment optimization problem (Eq. 1).

A device is a :class:`~repro.edge.device.DeviceModel` (memory M_i and
energy E_i budgets); a sub-model is a :class:`PlannedSubModel` (size m_j
and per-sample FLOPs e_j), the one type Algorithm 1's head schedule
builds, Algorithm 3 places, the DES scores and a plan's JSON records.
An assignment maps every sub-model to a device subject to::

    L * e_j <= E_i          (energy of the hosting device)
    m_j <= M_i              (memory of the hosting device)
    sum_j m_j <= budget     (fleet-wide memory budget)

maximizing ``min_i (E_i - L * e_j)`` — the weakest device's residual
energy, a proxy for the worst-case inference latency.
"""

from __future__ import annotations

import dataclasses

from ..edge.device import DeviceModel
from ..profiling import model_flops


@dataclasses.dataclass(frozen=True)
class PlannedSubModel:
    """One sub-model's identity, footprint, and rebuild recipe."""

    model_id: str
    classes: tuple[int, ...]           # class subset this sub-model covers
    hp: int                            # head-pruning number (0 = unpruned)
    size_bytes: int                    # m_j
    flops_per_sample: float            # e_j
    feature_dim: int                   # width of forward_features output
    model_kind: str                    # repro.edge.runtime.MODEL_KINDS key
    model_config: dict                 # exact config dict to rebuild the module
    quant: str = "fp32"                # weight scheme served ("fp32"/"int8")

    @staticmethod
    def from_module(model_id: str, module, kind: str, classes,
                    hp: int = 0) -> "PlannedSubModel":
        """The sub-model a built ``kind`` module is, covering ``classes``:
        size, FLOPs, feature width and config measured on the module.
        Its size is the bytes of its parameters *and* buffers, what its
        ``state_dict()`` (and so its worker and its artifact) holds.
        Every figure depends only on shapes, so the module may be built
        under :func:`repro.nn.init.unwritten`."""
        return PlannedSubModel(
            model_id=model_id,
            classes=tuple(int(c) for c in classes),
            hp=hp,
            size_bytes=sum(p.data.nbytes for _, p in module.named_parameters())
            + sum(b.nbytes for _, b in module.named_buffers()),
            flops_per_sample=float(model_flops(kind, module.config)),
            feature_dim=int(module.feature_dim()),
            model_kind=kind,
            model_config=module.config.to_dict())

    def to_dict(self) -> dict:
        data = dataclasses.asdict(self)
        data["classes"] = list(self.classes)
        return data

    @staticmethod
    def from_dict(data: dict) -> "PlannedSubModel":
        data = dict(data)
        data["classes"] = tuple(int(c) for c in data["classes"])
        return PlannedSubModel(**data)


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


class InfeasibleAssignment(Exception):
    """Raised when no assignment satisfies the constraints."""


def validate_plan(mapping: dict[str, str], devices: list[DeviceModel],
                  submodels: list[PlannedSubModel], num_samples: int) -> None:
    """Raise ``InfeasibleAssignment`` if ``mapping`` (model id → device
    id) violates any constraint."""
    device_by_id = {d.device_id: d for d in devices}
    model_by_id = {m.model_id: m for m in submodels}
    # Sorted lists, not sets: a duplicated model id is a mapping error too.
    if sorted(mapping) != sorted(m.model_id for m in submodels):
        raise InfeasibleAssignment(
            "mapping must place every sub-model exactly once")
    mem_used: dict[str, int] = {d: 0 for d in device_by_id}
    energy_used: dict[str, float] = {d: 0.0 for d in device_by_id}
    for model_id, device_id in mapping.items():
        if device_id not in device_by_id:
            raise InfeasibleAssignment(
                f"sub-model {model_id!r} mapped to unknown device "
                f"{device_id!r}")
        model = model_by_id[model_id]
        mem_used[device_id] += model.size_bytes
        energy_used[device_id] += model.flops_per_sample * num_samples
    for device_id, device in device_by_id.items():
        if mem_used[device_id] > device.memory_bytes:
            raise InfeasibleAssignment(
                f"device {device_id} over memory: {mem_used[device_id]} "
                f"> {device.memory_bytes}")
        if energy_used[device_id] > device.energy_flops:
            raise InfeasibleAssignment(
                f"device {device_id} over energy: {energy_used[device_id]:.3g} "
                f"> {device.energy_flops:.3g}")
