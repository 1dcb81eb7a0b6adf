"""Split-CNN (NNFacet, Chen et al.) and Split-SNN (EC-SNN, Yu et al.).

NNFacet splits a VGG backbone into class-specific sub-models by
channel-wise filter pruning and fuses their outputs; EC-SNN does the same
to a convolutional spiking network.  Both are reproduced under the same
class-partitioning, placement and fusion machinery as ED-ViT, so Table III
and Fig. 7 compare methods rather than harnesses:

1. train one backbone on all classes;
2. partition the classes into N balanced groups;
3. per group: adapt the head, filter-prune to the target width, finetune;
4. place the pruned sub-models with Algorithm 3 (greedy assignment);
5. train the same tower fusion MLP on concatenated sub-model features.

The backbone's type picks the method.  The result is a
:class:`repro.planning.PlannedSystem` (recipe ``split-cnn`` /
``split-snn``) that serves, replans, simulates and round-trips through
JSON like every other planned fleet.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..core.training import TrainConfig, train_classifier
from ..data.synthetic import Dataset, one_vs_rest_dataset
from ..edge.device import DeviceModel
from ..models.snn import ConvSNN
from ..models.vgg import VGG
from ..nn import Module
from ..planning import PlannedSubModel, PlannedSystem, Planner, PlannerConfig
from ..pruning.channel import prune_snn, prune_vgg
from ..splitting.class_assignment import balanced_class_partition
from ..splitting.fusion import train_fusion_mlp

# Backbone type -> (MODEL_KINDS key, channel pruner, plan.build["recipe"]).
_METHODS = {
    VGG: ("vgg", prune_vgg, "split-cnn"),
    ConvSNN: ("snn", prune_snn, "split-snn"),
}


@dataclasses.dataclass
class SplitConfig:
    num_devices: int
    keep_ratio: float = 0.5          # channel keep fraction per sub-model
    adapt_epochs: int = 2
    finetune_epochs: int = 3
    fusion_epochs: int = 5
    seed: int = 0


# Probe images the channel pruner scores on, and the learning rate of
# head adaptation and finetuning.
PROBE_SIZE = 32
SPLIT_LR = 1e-3


def _adapt_head(base: Module, num_classes: int,
                rng: np.random.Generator) -> Module:
    """Clone ``base`` with a fresh ``num_classes``-way final layer."""
    new = type(base)(dataclasses.replace(base.config, num_classes=num_classes),
                     rng=rng)
    own = new.state_dict()
    for key, value in base.state_dict().items():
        if key in own and own[key].shape == value.shape:
            own[key] = value
    new.load_state_dict(own, strict=True)
    return new


def build_split(base: VGG | ConvSNN, dataset: Dataset,
                devices: list[DeviceModel],
                config: SplitConfig) -> PlannedSystem:
    """Split, prune and place ``base`` on ``devices``; return the system."""
    kind, prune, recipe = _METHODS[type(base)]
    rng = np.random.default_rng(config.seed)
    partition = balanced_class_partition(dataset.num_classes,
                                         config.num_devices, rng)
    models: list[Module] = []
    for classes in partition:
        if len(classes) == 1:
            subset = one_vs_rest_dataset(dataset, classes[0], rng)
        else:
            subset = dataset.subset_of_classes(classes)
        model = _adapt_head(base, subset.num_classes, rng)
        if config.adapt_epochs > 0:
            train_classifier(model, subset.x_train, subset.y_train,
                             TrainConfig(epochs=config.adapt_epochs,
                                         lr=SPLIT_LR, seed=config.seed))
        if config.keep_ratio < 1.0:
            probe_idx = rng.choice(len(subset.x_train),
                                   size=min(PROBE_SIZE,
                                            len(subset.x_train)),
                                   replace=False)
            model = prune(model, config.keep_ratio,
                          subset.x_train[probe_idx])
        if config.finetune_epochs > 0:
            train_classifier(model, subset.x_train, subset.y_train,
                             TrainConfig(epochs=config.finetune_epochs,
                                         lr=SPLIT_LR, seed=config.seed))
        models.append(model)

    submodels = [PlannedSubModel.from_module(f"submodel-{index}", model,
                                             kind, classes)
                 for index, (model, classes)
                 in enumerate(zip(models, partition))]
    plan = Planner(devices, config=PlannerConfig(seed=config.seed)) \
        .plan_submodels(dataset.num_classes, partition, submodels,
                        build={"recipe": recipe})
    fusion = train_fusion_mlp(models, dataset, epochs=config.fusion_epochs,
                              seed=config.seed)
    return PlannedSystem(plan=plan, models=models, fusion=fusion)
