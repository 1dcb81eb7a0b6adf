"""Model fusion (Section IV-E) and the Table-IV fusion variants.

Three fusion strategies are implemented:

* :func:`train_fusion_mlp` — the ED-ViT default: freeze the sub-models,
  concatenate their CLS features, train the tower MLP once;
* :func:`softmax_average_predict` — the "w/o retrain" ablation: place each
  sub-model's softmax over its own classes into the full class vector (the
  class subsets are disjoint, so this is the concatenated-softmax
  prediction the paper averages);
* :func:`entire_retrain` — the "w/ entire retrain" ablation: finetune the
  sub-models and the fusion MLP jointly, end-to-end.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..core.inference import extract_features, predict_probabilities
from ..core.training import TrainConfig, train_classifier
from ..data.loaders import DataLoader
from ..data.synthetic import Dataset
from ..models.fusion import FusionMLP, build_fusion_for


def collect_features(models: list[nn.Module], x: np.ndarray,
                     batch_size: int = 64) -> np.ndarray:
    """Concatenated frozen features from every sub-model, shape (N, sum d_i)."""
    feats = [extract_features(model, x, batch_size) for model in models]
    return np.concatenate(feats, axis=-1)


def train_fusion_mlp(models: list[nn.Module], dataset: Dataset,
                     epochs: int = 5, lr: float = 1e-3, batch_size: int = 32,
                     shrink: float = 0.5, seed: int = 0) -> FusionMLP:
    """Train the tower MLP on frozen concatenated sub-model features."""
    rng = np.random.default_rng(seed)
    fusion = build_fusion_for([model.feature_dim() for model in models],
                              num_classes=dataset.num_classes, shrink=shrink,
                              rng=rng)
    features = collect_features(models, dataset.x_train, batch_size)
    train_classifier(fusion, features, dataset.y_train,
                     TrainConfig(epochs=epochs, batch_size=batch_size, lr=lr,
                                 seed=seed))
    return fusion


def fused_predict(models: list[nn.Module], fusion: FusionMLP,
                  x: np.ndarray, batch_size: int = 64) -> np.ndarray:
    """Full-pipeline class predictions for a batch of inputs.

    The degraded variant, with crashed sub-models' feature slots
    zero-filled, is :meth:`repro.planning.PlannedSystem.local_fused_labels`
    with ``zero_models``.
    """
    features = collect_features(models, x, batch_size)
    return fusion.predict(features, batch_size).argmax(axis=-1)


def fused_accuracy(models: list[nn.Module], fusion: FusionMLP,
                   dataset: Dataset, batch_size: int = 64) -> float:
    pred = fused_predict(models, fusion, dataset.x_test, batch_size)
    return float((pred == dataset.y_test).mean())


def softmax_average_predict(models: list[nn.Module],
                            groups: list[list[int]], num_classes: int,
                            x: np.ndarray, batch_size: int = 64) -> np.ndarray:
    """The "(w/o) retrain" fusion: concatenated per-subset softmax scores.

    ``groups[i]`` is the class subset ``models[i]`` covers.  A singleton
    group's model is a binary one-vs-rest classifier whose column 1 is
    the positive-class probability (see
    :func:`repro.pruning.pipeline.prune_submodel`).
    """
    scores = np.zeros((len(x), num_classes), dtype=np.float64)
    for model, classes in zip(models, groups):
        probs = predict_probabilities(model, x, batch_size)
        if len(classes) == 1:
            scores[:, classes[0]] = probs[:, 1]
        else:
            for local, global_cls in enumerate(classes):
                scores[:, global_cls] = probs[:, local]
    return scores.argmax(axis=-1)


def softmax_average_accuracy(models: list[nn.Module],
                             groups: list[list[int]], dataset: Dataset,
                             batch_size: int = 64) -> float:
    pred = softmax_average_predict(models, groups, dataset.num_classes,
                                   dataset.x_test, batch_size)
    return float((pred == dataset.y_test).mean())


def entire_retrain(models: list[nn.Module], fusion: FusionMLP,
                   dataset: Dataset, epochs: int = 2, lr: float = 5e-4,
                   batch_size: int = 32, seed: int = 0) -> None:
    """The "(w/) entire retrain" ablation: joint end-to-end finetuning.

    Gradients flow through the fusion MLP *and* every sub-model.  The paper
    notes this recovers substantial accuracy but is impractical on real
    deployments; we implement it for Table IV.
    """
    params = list(fusion.parameters())
    for model in models:
        params.extend(model.parameters())
        model.train()
    fusion.train()
    optimizer = nn.Adam(params, lr=lr)
    rng = np.random.default_rng(seed)
    loader = DataLoader(dataset.x_train, dataset.y_train,
                        batch_size=batch_size, shuffle=True, rng=rng)
    for _ in range(epochs):
        for xb, yb in loader:
            xb_t = nn.Tensor(xb)
            feats = [model.forward_features(xb_t) for model in models]
            logits = fusion.fuse(feats)
            loss = nn.cross_entropy(logits, yb)
            optimizer.zero_grad()
            loss.backward()
            nn.clip_grad_norm(params, 5.0)
            optimizer.step()
    for model in models:
        model.eval()
    fusion.eval()
