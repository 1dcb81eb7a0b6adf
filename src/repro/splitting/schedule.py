"""The head-pruning schedule loop of Algorithm 1 (lines 7–20).

Algorithm 1 prunes all sub-models with the current head numbers, checks the
fleet memory budget, attempts a greedy assignment, and — on failure —
increments the pruning head number of the largest sub-model and repeats.

The memory size and FLOPs of a sub-model depend only on its ``hp`` (the
class subset changes the head layer by a negligible amount), so we run this
loop *analytically* using :func:`repro.pruning.structured.pruned_dims` and
only execute the expensive weight-level pruning once, after the schedule
converges.  This is semantically identical to the paper's loop while
avoiding wasted retraining.
"""

from __future__ import annotations

import dataclasses
import itertools

from ..assignment import AssignmentPlan, DeviceSpec, SubModelSpec, try_greedy_assign
from ..models.vit import ViTConfig
from ..profiling import paper_flops, param_bytes, vit_param_count
from ..pruning.structured import pruned_dims


class ScheduleInfeasible(Exception):
    """No head schedule satisfies the budget/assignment constraints."""


@dataclasses.dataclass(frozen=True)
class SubModelFootprint:
    """Analytic footprint of one sub-model under a candidate ``hp``."""

    index: int
    hp: int
    config: ViTConfig
    size_bytes: int
    flops_per_sample: float

    def to_spec(self, classes: tuple[int, ...]) -> SubModelSpec:
        return SubModelSpec(model_id=f"submodel-{self.index}",
                            size_bytes=self.size_bytes,
                            flops_per_sample=self.flops_per_sample,
                            classes=classes)


def submodel_config(base: ViTConfig, hp: int, num_classes: int) -> ViTConfig:
    """The ViT config a sub-model will have after pruning with ``hp``."""
    dims = pruned_dims(base, hp)
    return dataclasses.replace(
        base, embed_dim=dims["embed_dim"], attn_dim=dims["attn_dim"],
        mlp_hidden=dims["mlp_hidden"], num_classes=num_classes,
        name=f"{base.name}-hp{hp}")


def footprint(base: ViTConfig, index: int, hp: int,
              num_classes: int) -> SubModelFootprint:
    cfg = submodel_config(base, hp, num_classes)
    return SubModelFootprint(index=index, hp=hp, config=cfg,
                             size_bytes=param_bytes(vit_param_count(cfg)),
                             flops_per_sample=float(paper_flops(cfg)))


@dataclasses.dataclass
class HeadSchedule:
    """The converged output of Algorithm 1's scheduling loop."""

    hps: list[int]
    footprints: list[SubModelFootprint]
    plan: AssignmentPlan
    iterations: int


def plan_head_schedule(base: ViTConfig, class_groups: list[list[int]],
                       devices: list[DeviceSpec], memory_budget_bytes: int,
                       num_samples: int) -> HeadSchedule:
    """Iterate head-pruning numbers until the fleet fits (Algorithm 1).

    Every sub-model starts at ``h/2``, which matches the paper's observed
    single-device operating point (a ViT-Base pruned to half its heads).
    Raises :class:`ScheduleInfeasible` if the most aggressive schedule
    (one effective head-worth of dims) still violates the constraints.
    """
    n = len(class_groups)
    h = base.num_heads
    hps = [h // 2] * n
    # Each pass prunes one more head or raises, so the loop terminates.
    for iteration in itertools.count(1):
        feet = [footprint(base, i, hp, len(group))
                for i, (hp, group) in enumerate(zip(hps, class_groups))]
        total = sum(f.size_bytes for f in feet)
        plan = None
        if total <= memory_budget_bytes:
            specs = [f.to_spec(tuple(group))
                     for f, group in zip(feet, class_groups)]
            plan = try_greedy_assign(devices, specs, num_samples)
        if plan is not None:
            return HeadSchedule(hps=hps, footprints=feet, plan=plan,
                                iterations=iteration)
        # Line 18: prune one more head from the largest sub-model.
        sizes = [f.size_bytes for f in feet]
        candidates = [i for i in range(n) if hps[i] < h - 1]
        if not candidates:
            # Two distinct terminal failures hide behind "infeasible":
            # the fleet budget itself is unreachable, or the budget holds
            # but greedy per-device assignment still finds no placement.
            # Operators debug different constraints for each, so say which.
            if total <= memory_budget_bytes:
                raise ScheduleInfeasible(
                    f"greedy assignment failed at maximum pruning: total "
                    f"{total} B fits the fleet budget "
                    f"{memory_budget_bytes} B, but no per-device placement "
                    "satisfies the memory/energy constraints "
                    f"({len(devices)} devices, {n} sub-models)")
            raise ScheduleInfeasible(
                f"budget {memory_budget_bytes} B unreachable even at maximum "
                f"pruning (total {total} B)")
        biggest = max(candidates, key=lambda i: sizes[i])
        hps[biggest] += 1
