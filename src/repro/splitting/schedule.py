"""The head-pruning schedule loop of Algorithm 1 (lines 7–20).

Algorithm 1 prunes all sub-models with the current head numbers, checks the
fleet memory budget, attempts a greedy assignment, and — on failure —
prunes one more head and repeats.  Here every sub-model moves up one head
*together*: uniform increments fit the paper's reported ViT-Base numbers
(hp 6/6/8/9/10 at N = 1/2/3/5/10; at N = 10, 9.64 MiB and 1.31 s per
sub-model against the paper's 9.60 MB and 1.28 s), where the earlier
reading — one more head on the largest sub-model per pass — did not: it
planned (7,7,7), (9,8,8,8,8) and (10,10,10,9×7), twice the paper's
latency at N = 10.  It also reproduces ViT-Small's reported N = 10 size;
ViT-Large's (18.73 MB, hp 14) is reached by no fleet-budget reading (the
loop stops at hp 13 under 600 MB).

The memory size and FLOPs of a sub-model depend only on its ``hp`` (the
class subset changes the head layer by a negligible amount), so we run this
loop *analytically* using :func:`repro.pruning.structured.pruned_dims` and
only execute the expensive weight-level pruning once, after the schedule
converges.  This is semantically identical to the paper's loop while
avoiding wasted retraining.  Each candidate is a
:class:`~repro.assignment.PlannedSubModel` — the type Algorithm 3
places and a deployment plan records — so the converged schedule is the
plan's sub-models as they stand.
"""

from __future__ import annotations

import dataclasses

from ..assignment import AssignmentPlan, PlannedSubModel, try_greedy_assign
from ..edge.device import DeviceModel
from ..models.vit import ViTConfig
from ..profiling import paper_flops, param_bytes, vit_param_count
from ..pruning.structured import pruned_dims


class ScheduleInfeasible(Exception):
    """No head schedule satisfies the budget/assignment constraints."""


def submodel_config(base: ViTConfig, hp: int, num_classes: int) -> ViTConfig:
    """The ViT config a sub-model will have after pruning with ``hp``."""
    dims = pruned_dims(base, hp)
    return dataclasses.replace(
        base, embed_dim=dims["embed_dim"], attn_dim=dims["attn_dim"],
        mlp_hidden=dims["mlp_hidden"], num_classes=num_classes,
        name=f"{base.name}-hp{hp}")


def footprint(base: ViTConfig, index: int, hp: int,
              classes) -> PlannedSubModel:
    """Sub-model ``index`` of a ``base`` split: ``base`` pruned with
    ``hp`` to cover ``classes``, sized analytically."""
    cfg = submodel_config(base, hp, len(classes))
    return PlannedSubModel(model_id=f"submodel-{index}",
                           classes=tuple(classes),
                           hp=hp,
                           size_bytes=param_bytes(vit_param_count(cfg)),
                           flops_per_sample=float(paper_flops(cfg)),
                           feature_dim=cfg.embed_dim,
                           model_kind="vit",
                           model_config=cfg.to_dict())


@dataclasses.dataclass
class HeadSchedule:
    """The converged output of Algorithm 1's scheduling loop."""

    submodels: list[PlannedSubModel]
    plan: AssignmentPlan


def plan_head_schedule(base: ViTConfig, class_groups: list[list[int]],
                       devices: list[DeviceModel], memory_budget_bytes: int,
                       num_samples: int) -> HeadSchedule:
    """Raise every sub-model's ``hp`` together until the fleet fits
    (Algorithm 1).

    Every sub-model starts at ``h/2``, the paper's single-device
    operating point (a ViT-Base pruned to half its heads), and all of
    them gain one pruned head per pass until their total size is within
    ``memory_budget_bytes`` and :func:`repro.assignment.try_greedy_assign`
    places them.  ``memory_budget_bytes`` is in bytes; the paper's
    budgets are decimal MB (``180 MB`` is ``180 * 10**6`` B, see
    :data:`repro.core.experiments.PAPER_BUDGETS_MB`), while sub-model
    sizes are reported in MiB (:func:`repro.profiling.size_mb`).
    Raises :class:`ScheduleInfeasible` if the most aggressive schedule
    (one head kept) still violates the constraints.
    """
    n = len(class_groups)
    h = base.num_heads
    for hp in range(h // 2, h):
        submodels = [footprint(base, i, hp, group)
                     for i, group in enumerate(class_groups)]
        total = sum(m.size_bytes for m in submodels)
        if total <= memory_budget_bytes:
            plan = try_greedy_assign(devices, submodels, num_samples)
            if plan is not None:
                return HeadSchedule(submodels=submodels, plan=plan)
    # Two distinct terminal failures hide behind "infeasible": the fleet
    # budget itself is unreachable, or the budget holds but greedy
    # per-device assignment still finds no placement.  Operators debug
    # different constraints for each, so say which.
    if total <= memory_budget_bytes:
        raise ScheduleInfeasible(
            f"greedy assignment failed at maximum pruning: total {total} B "
            f"fits the fleet budget {memory_budget_bytes} B, but no "
            "per-device placement satisfies the memory/energy constraints "
            f"({len(devices)} devices, {n} sub-models)")
    raise ScheduleInfeasible(
        f"budget {memory_budget_bytes} B unreachable even at maximum "
        f"pruning (total {total} B)")
