"""Algorithm 2 — class-wise sub-model pruning.

Given the trained original model, a class subset ``C_i`` and a pruning head
number ``hp_i``, this pipeline:

1. resamples the training data to ``C_i`` and adapts the classification
   head to ``|C_i|`` outputs;
2. runs the three pruning stages (residual channels, MHSA dims, FFN
   hidden), finetuning after each stage to recover accuracy;
3. retrains the pruned sub-model on its class subset.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..core.training import TrainConfig, train_classifier
from ..data.synthetic import Dataset
from ..models.vit import VisionTransformer
from .importance import Probe
from .structured import Backend, prune_ffn, prune_mhsa, prune_short_connection
from .surgery import replace_classifier_head


@dataclasses.dataclass
class PruneConfig:
    """Hyper-parameters of the per-sub-model pruning pipeline."""

    backend: Backend = "kl"
    probe_size: int = 32
    head_adapt_epochs: int = 2      # retrain the new |C_i|-way head pre-pruning
    stage_finetune_epochs: int = 1  # finetune after each pruning stage
    retrain_epochs: int = 3         # Algorithm 2's final retrain
    batch_size: int = 32
    lr: float = 1e-3
    seed: int = 0
    verbose: bool = False

    def train_config(self, epochs: int) -> TrainConfig:
        return TrainConfig(epochs=epochs, batch_size=self.batch_size,
                           lr=self.lr, seed=self.seed, verbose=self.verbose)


@dataclasses.dataclass
class PrunedSubModel:
    """The product of Algorithm 2 for one class subset.

    A singleton subset is trained as a binary own-class-vs-rest classifier
    (a 1-way softmax carries no training or KL signal; see
    :func:`repro.data.one_vs_rest_dataset`): its head has two outputs and
    index 1 scores the positive class.
    """

    model: VisionTransformer
    classes: list[int]
    hp: int
    history: dict[str, float]


def _probe_from(dataset: Dataset, model: VisionTransformer, size: int,
                seed: int) -> Probe:
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(dataset.x_train), size=min(size, len(dataset.x_train)),
                     replace=False)
    return Probe.from_model(model, dataset.x_train[idx])


def prune_submodel(original: VisionTransformer, dataset: Dataset,
                   classes: list[int], hp: int,
                   config: PruneConfig | None = None) -> PrunedSubModel:
    """Run Algorithm 2: resample -> 3-stage prune -> retrain."""
    config = config or PruneConfig()
    history: dict[str, float] = {}
    rng = np.random.default_rng(config.seed)

    # Line 1: resample (X_i, y_i) to the class subset.  A singleton subset
    # becomes a binary one-vs-rest task (a 1-way softmax has neither a
    # training gradient nor a KL-scoring signal).
    if len(classes) == 1:
        from ..data.synthetic import one_vs_rest_dataset

        subset = one_vs_rest_dataset(dataset, classes[0], rng)
    else:
        subset = dataset.subset_of_classes(classes)

    # Adapt the classification head before pruning so the KL reference
    # distribution is over the sub-model's own label space.
    model = replace_classifier_head(original, subset.num_classes, rng=rng)
    if hp == 0 and len(classes) == original.config.num_classes:
        # Degenerate single-device, no-pruning case: keep the trained head.
        model.head.weight.data = original.head.weight.data.copy()
        model.head.bias.data = original.head.bias.data.copy()
    elif config.head_adapt_epochs > 0:
        result = train_classifier(model, subset.x_train, subset.y_train,
                                  config.train_config(config.head_adapt_epochs))
        history["head_adapt_acc"] = result.final_accuracy

    if hp > 0:
        probe = _probe_from(subset, model, config.probe_size, config.seed)

        # Line 2: PruneShortConnection.
        model = prune_short_connection(model, hp, probe, config.backend)
        _finetune(model, subset, config, history, "stage1")

        # Line 3: PruneMHSA (fresh probe against the current model).
        probe = _probe_from(subset, model, config.probe_size, config.seed)
        model = prune_mhsa(model, hp, probe, config.backend)
        _finetune(model, subset, config, history, "stage2")

        # Line 4: PruneFFN.
        probe = _probe_from(subset, model, config.probe_size, config.seed)
        model = prune_ffn(model, hp, probe, config.backend)
        _finetune(model, subset, config, history, "stage3")

    # Line 5: retrain.
    if config.retrain_epochs > 0:
        result = train_classifier(model, subset.x_train, subset.y_train,
                                  config.train_config(config.retrain_epochs))
        history["retrain_acc"] = result.final_accuracy

    return PrunedSubModel(model=model, classes=list(classes), hp=hp,
                          history=history)


def _finetune(model: VisionTransformer, subset: Dataset, config: PruneConfig,
              history: dict[str, float], stage: str) -> None:
    if config.stage_finetune_epochs > 0:
        result = train_classifier(model, subset.x_train, subset.y_train,
                                  config.train_config(config.stage_finetune_epochs))
        history[f"{stage}_finetune_acc"] = result.final_accuracy
