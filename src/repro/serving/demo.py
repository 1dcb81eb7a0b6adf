"""The demo-v1 training recipe and the in-process fusion reference.

The demo recipe is what :func:`repro.planning.plan_demo_system` plans and
:meth:`repro.planning.PlannedSystem.from_plan` rebuilds: one tiny
sub-model per class group (any of "vit", "vgg", "snn") plus a fusion
MLP, optionally trained on a seeded synthetic set so degraded-mode
accuracy is meaningful rather than random.  :func:`fused_labels` is the
in-process reference every served label is checked against.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..core.inference import extract_features
from ..core.training import TrainConfig, train_classifier
from ..data import cifar10_like
from ..edge.codec import get_codec
from ..models.fusion import FusionMLP
from ..models.snn import ConvSNN, SNNConfig
from ..models.vgg import VGG, VGGConfig
from ..models.vit import ViTConfig, VisionTransformer

# Name of the deterministic demo training protocol; recorded in plan
# ``build`` dicts and artifact recipes so a digest pins the exact
# protocol the weights came from.
DEMO_RECIPE = "demo-v1"


def demo_dataset(image_size: int, seed: int):
    """The seeded synthetic dataset of the ``demo-v1`` training recipe."""
    return cifar10_like(image_size=image_size, train_per_class=48,
                        test_per_class=16, noise_std=0.3, seed=seed)


def _tiny_model(kind: str, num_classes: int, image_size: int,
                rng: np.random.Generator) -> nn.Module:
    if kind == "vit":
        return VisionTransformer(
            ViTConfig(image_size=image_size, patch_size=4,
                      num_classes=num_classes, depth=1, embed_dim=8,
                      num_heads=2),
            rng=rng)
    if kind == "vgg":
        return VGG(
            VGGConfig(plan="vgg8", image_size=image_size,
                      num_classes=num_classes, width_scale=0.0625,
                      classifier_hidden=128),
            rng=rng)
    if kind == "snn":
        return ConvSNN(
            SNNConfig(image_size=image_size, num_classes=num_classes,
                      channels=(4, 8, 8), time_steps=2,
                      classifier_hidden=16),
            rng=rng)
    raise KeyError(f"unknown demo model kind {kind!r}; "
                   "choose 'vit', 'vgg', or 'snn'")


def fused_labels(models: list[nn.Module], fusion: FusionMLP, x: np.ndarray,
                 zero_indices: tuple[int, ...] = (),
                 codec: str | None = None) -> np.ndarray:
    """Reference fused prediction computed in-process (no cluster).

    ``zero_indices`` zero-fills those sub-models' feature slots, matching
    the server's degraded-fusion path exactly.  ``codec`` additionally
    round-trips each feature array through that wire codec's
    encode→decode, reproducing the quantization the served fleet would
    fuse — the hook the planner's codec selection measures accuracy
    with.
    """
    if not set(zero_indices) <= set(range(len(models))):
        raise IndexError(f"zero_indices out of range: {sorted(zero_indices)}")
    wire = None if codec in (None, "raw32") else get_codec(codec)
    chunks = []
    for index, model in enumerate(models):
        feats = extract_features(model, x)
        if index in zero_indices:
            feats = np.zeros_like(feats)
        elif wire is not None:
            feats = wire.decode(wire.encode(feats))
        chunks.append(feats)
    logits = fusion.predict(np.concatenate(chunks, axis=-1))
    return logits.argmax(axis=-1)


def train_demo_system(models: list[nn.Module], fusion: FusionMLP,
                      image_size: int, seed: int,
                      fusion_epochs: int = 8) -> None:
    """The deterministic demo training protocol, in place.

    First gives each sub-model informative features (brief classifier
    training), then fits the fusion MLP on the frozen concatenated
    features — mirroring the paper's train-then-fuse protocol at demo
    scale.  Fully seeded, so the same (models, seed, epochs) always
    reproduces the same weights; the planning layer relies on this to
    rebuild a trained system from a JSON plan recipe.
    """
    if fusion.config.num_classes != 10:
        raise ValueError("train_fusion uses the 10-class synthetic set; "
                         "pass num_classes=10")
    dataset = demo_dataset(image_size, seed)
    for index, model in enumerate(models):
        train_classifier(model, dataset.x_train, dataset.y_train,
                         TrainConfig(epochs=fusion_epochs, lr=3e-3,
                                     seed=seed + index))
    features = np.concatenate(
        [extract_features(m, dataset.x_train) for m in models], axis=-1)
    train_classifier(fusion, features, dataset.y_train,
                     TrainConfig(epochs=2 * fusion_epochs, lr=3e-3,
                                 seed=seed))
