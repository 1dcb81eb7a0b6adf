"""Split-CNN baseline (NNFacet, Chen et al.).

NNFacet splits a VGG backbone into class-specific sub-models using
channel-wise filter pruning, then fuses sub-model outputs.  We reproduce
that protocol under the same class-partitioning and fusion machinery as
ED-ViT so Table III / Fig. 7 compare methods rather than harnesses:

1. train one VGG on all classes;
2. partition classes into N balanced groups;
3. per group: adapt the head, filter-prune to the target width, finetune;
4. train the same tower fusion MLP on concatenated sub-model features.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..core.training import TrainConfig, train_classifier
from ..data.synthetic import Dataset
from ..models.fusion import FusionMLP
from ..models.vgg import VGG
from ..pruning.channel import prune_vgg
from ..splitting.class_assignment import balanced_class_partition
from ..splitting.fusion import (
    fused_accuracy,
    fused_predict,
    softmax_average_accuracy,
    train_fusion_mlp,
)


@dataclasses.dataclass
class SplitCNNConfig:
    num_devices: int
    keep_ratio: float = 0.5          # channel keep fraction per sub-model
    adapt_epochs: int = 2
    finetune_epochs: int = 3
    fusion_epochs: int = 5
    probe_size: int = 32
    lr: float = 1e-3
    seed: int = 0


@dataclasses.dataclass
class SplitCNNSubModel:
    """One class group's pruned VGG."""

    model: VGG
    classes: list[int]
    history: dict[str, float]


@dataclasses.dataclass
class SplitCNNSystem:
    submodels: list[SplitCNNSubModel]
    fusion: FusionMLP
    partition: list[list[int]]
    num_classes: int

    def predict(self, x: np.ndarray, batch_size: int = 64) -> np.ndarray:
        """Fused class predictions via the batched graph-free engine."""
        return fused_predict(self.models, self.fusion, x, batch_size)

    def accuracy(self, dataset: Dataset) -> float:
        return fused_accuracy(self.models, self.fusion, dataset)

    def softmax_average_accuracy(self, dataset: Dataset) -> float:
        return softmax_average_accuracy(self.models, self.partition,
                                        dataset)

    @property
    def models(self) -> list[VGG]:
        return [sm.model for sm in self.submodels]

    def total_params(self) -> int:
        return sum(model.num_parameters() for model in self.models)


def _adapt_head(base: VGG, num_classes: int, rng: np.random.Generator) -> VGG:
    """Clone the VGG with a fresh ``num_classes``-way final layer."""
    cfg = dataclasses.replace(base.config, num_classes=num_classes)
    new = VGG(cfg, rng=rng)
    state = base.state_dict()
    own = new.state_dict()
    for key, value in state.items():
        if key in own and own[key].shape == value.shape:
            own[key] = value
    new.load_state_dict(own, strict=True)
    return new


def build_split_cnn(base: VGG, dataset: Dataset,
                    config: SplitCNNConfig) -> SplitCNNSystem:
    rng = np.random.default_rng(config.seed)
    partition = balanced_class_partition(dataset.num_classes,
                                         config.num_devices, rng)
    submodels: list[SplitCNNSubModel] = []
    for classes in partition:
        if len(classes) == 1:
            from ..data.synthetic import one_vs_rest_dataset

            subset = one_vs_rest_dataset(dataset, classes[0], rng)
        else:
            subset = dataset.subset_of_classes(classes)
        history: dict[str, float] = {}
        model = _adapt_head(base, subset.num_classes, rng)
        if config.adapt_epochs > 0:
            result = train_classifier(
                model, subset.x_train, subset.y_train,
                TrainConfig(epochs=config.adapt_epochs, lr=config.lr,
                            seed=config.seed))
            history["adapt_acc"] = result.final_accuracy
        if config.keep_ratio < 1.0:
            probe_idx = rng.choice(len(subset.x_train),
                                   size=min(config.probe_size,
                                            len(subset.x_train)),
                                   replace=False)
            model = prune_vgg(model, config.keep_ratio,
                              subset.x_train[probe_idx])
        if config.finetune_epochs > 0:
            result = train_classifier(
                model, subset.x_train, subset.y_train,
                TrainConfig(epochs=config.finetune_epochs, lr=config.lr,
                            seed=config.seed))
            history["finetune_acc"] = result.final_accuracy
        submodels.append(SplitCNNSubModel(model=model, classes=list(classes),
                                          history=history))

    fusion = train_fusion_mlp([sm.model for sm in submodels], dataset,
                              epochs=config.fusion_epochs, seed=config.seed)
    return SplitCNNSystem(submodels=submodels, fusion=fusion,
                          partition=partition,
                          num_classes=dataset.num_classes)
