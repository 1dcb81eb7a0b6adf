"""The ED-ViT framework orchestrator (Fig. 1).

Ties the four steps together over a trained Vision Transformer:

1. **Model splitting** — balanced class partition (Algorithm 1, lines 3–6)
   and the head-pruning schedule loop (lines 7–20), both run by
   :meth:`repro.planning.Planner.plan_vit`;
2. **Model pruning** — Algorithm 2 per planned sub-model
   (:mod:`repro.pruning.pipeline`);
3. **Model assignment** — the Algorithm 3 greedy placement the planner
   chose while scheduling;
4. **Model fusion** — tower-MLP training (Section IV-E,
   :mod:`repro.splitting.fusion`).

The pipeline ends in a :class:`repro.planning.PlannedSystem`: the plan
(partition, head numbers, placement, the pruned modules' configs) plus
the pruned modules and the trained fusion MLP.  It serves on Alg. 3's
placement through ``make_server()``, replans after a device failure,
simulates through ``plan.deployment_spec()`` and round-trips through
JSON like every other planned fleet.
"""

from __future__ import annotations

import dataclasses

from ..data.synthetic import Dataset
from ..edge.device import DeviceModel
from ..models.vit import VisionTransformer
from ..planning import PlannedSystem, Planner, PlannerConfig
from ..profiling import module_param_count, paper_flops, param_bytes
from ..pruning.pipeline import PruneConfig, prune_submodel
from ..splitting.fusion import train_fusion_mlp

# Name of the ED-ViT build protocol, recorded in ``plan.build["recipe"]``.
EDVIT_RECIPE = "edvit"


@dataclasses.dataclass
class EDViTConfig:
    """End-to-end configuration of an ED-ViT build."""

    num_devices: int
    memory_budget_bytes: int
    prune: PruneConfig = dataclasses.field(default_factory=PruneConfig)
    fusion_epochs: int = 5
    fusion_lr: float = 1e-3
    seed: int = 0


def build_edvit(original: VisionTransformer, dataset: Dataset,
                devices: list[DeviceModel], config: EDViTConfig
                ) -> PlannedSystem:
    """Run the full ED-ViT pipeline (Fig. 1) and return the built system.

    ``devices`` is the edge fleet the sub-models are placed on; the
    planner's Raspberry Pi 4B ``"fusion"`` device hosts the fusion MLP.
    """
    # Steps 1 + 3 (planning): class partition and the Algorithm-1
    # scheduling loop, which embeds the Algorithm-3 placement.
    planner = Planner(devices, config=PlannerConfig(
        seed=config.seed, memory_budget_bytes=config.memory_budget_bytes))
    plan = planner.plan_vit(original.config, num_groups=config.num_devices)

    # Step 2: Algorithm-2 pruning per sub-model with the converged hp; the
    # plan records each pruned module's own config (which workers rebuild),
    # size and FLOPs (a singleton group's one-vs-rest head has two rows).
    models = [prune_submodel(original, dataset, list(sub.classes), sub.hp,
                             config=config.prune).model
              for sub in plan.submodels]
    plan.submodels = [
        dataclasses.replace(
            sub, model_config=model.config.to_dict(),
            size_bytes=param_bytes(module_param_count(model)),
            flops_per_sample=float(paper_flops(model.config)))
        for sub, model in zip(plan.submodels, models)]
    plan.build["recipe"] = EDVIT_RECIPE

    # Step 4: fusion MLP training on frozen features.
    fusion = train_fusion_mlp(models, dataset, epochs=config.fusion_epochs,
                              lr=config.fusion_lr, seed=config.seed)
    return PlannedSystem(plan=plan, models=models, fusion=fusion)
