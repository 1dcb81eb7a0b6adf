"""Self-contained demo systems for the serving layer.

Builds a small N-worker split (one tiny sub-model per emulated device plus
a fusion MLP) without the full ED-ViT pipeline, so the CLI subcommands,
the tests, the benchmarks, and the examples can all stand
up a serveable fleet in well under a second.  Any registered model kind
("vit", "vgg", "snn") can be served; ``train_fusion=True`` additionally
fits the fusion MLP on synthetic data so degraded-mode accuracy is
meaningful rather than random.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .. import nn
from ..core.inference import extract_features
from ..core.training import TrainConfig, train_classifier
from ..data import cifar10_like
from ..edge.codec import get_codec
from ..edge.device import DeviceModel
from ..edge.network import LinkModel
from ..edge.runtime import EdgeCluster, WorkerSpec
from ..models.fusion import FusionMLP, build_fusion_for
from ..models.snn import ConvSNN, SNNConfig
from ..models.vgg import VGG, VGGConfig
from ..models.vit import ViTConfig, VisionTransformer
from ..store import (
    ArtifactStore,
    fusion_recipe,
    recipe_digest,
    submodel_recipe,
    warm_load,
)

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
    with.  Shared by the demo and planning layers so the fusion
    reference exists only once.
    """
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


@dataclasses.dataclass
class DemoSystem:
    """A ready-to-serve fleet: worker specs, local twins, and fusion."""

    specs: list[WorkerSpec]
    models: list[nn.Module]            # in-process copies of the sub-models
    fusion: FusionMLP
    input_shape: tuple[int, int, int]  # one sample, (C, H, W)
    num_classes: int
    time_scale: float = 0.0
    transport: str = "multiprocess"    # repro.edge.transport substrate
    codec: str = "raw32"               # wire codec the specs carry
    warm_booted: bool = False          # weights came from an artifact store
    artifacts: dict[str, str] = dataclasses.field(default_factory=dict)

    def make_cluster(self) -> EdgeCluster:
        return EdgeCluster(self.specs, time_scale=self.time_scale,
                           transport=self.transport)

    def local_fused_labels(self, x: np.ndarray,
                           zero_workers: tuple[int, ...] = ()) -> np.ndarray:
        """Reference prediction; ``zero_workers`` emulates dead workers.

        Applies the system's wire-codec round trip, so served labels are
        comparable even under lossy codecs.
        """
        return fused_labels(self.models, self.fusion, x,
                            zero_indices=zero_workers, codec=self.codec)


def train_demo_system(models: list[nn.Module], fusion: FusionMLP,
                      image_size: int, seed: int, fusion_epochs: int = 8):
    """The deterministic demo training protocol; returns the dataset used.

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
    return dataset


def _demo_recipes(models: list[nn.Module], fusion: FusionMLP,
                  model_kind: str, image_size: int, train_fusion: bool,
                  fusion_epochs: int, seed: int) -> dict[str, dict]:
    """Rebuild recipes for a demo fleet, keyed by worker id + "fusion".

    The same shape as :meth:`repro.planning.DeploymentPlan.
    submodel_recipe` (kind, config, hp, classes, seed, train settings),
    with ``classes=None`` because the demo trains every sub-model on all
    classes rather than a partition subset.
    """
    train = {"recipe": DEMO_RECIPE, "model_kind": model_kind,
             "image_size": int(image_size),
             "train_fusion": bool(train_fusion),
             "fusion_epochs": int(fusion_epochs)}
    recipes = {f"w{index}": submodel_recipe(kind=model_kind,
                                            config=model.config.to_dict(),
                                            hp=0, classes=None,
                                            seed=seed + index, train=train)
               for index, model in enumerate(models)}
    recipes["fusion"] = fusion_recipe(config=fusion.config.to_dict(),
                                      seed=seed + 1000, train=train,
                                      submodels=list(recipes.values()))
    return recipes


def build_demo_system(num_workers: int = 2, model_kind: str = "vit",
                      num_classes: int = 10, image_size: int = 8,
                      seed: int = 0, time_scale: float = 0.0,
                      train_fusion: bool = False,
                      fusion_epochs: int = 8,
                      transport: str = "multiprocess",
                      codec: str = "raw32",
                      link: LinkModel | None = None,
                      store: ArtifactStore | None = None) -> DemoSystem:
    """Build an ``num_workers``-device demo split of ``model_kind``.

    ``transport`` picks the worker substrate, ``codec`` the feature wire
    codec, and ``link`` overrides the default (effectively free) uplink —
    e.g. :func:`repro.edge.network.tc_capped_link` plus a nonzero
    ``time_scale`` makes the fleet communication-bound like the paper's.

    ``store`` enables warm boot: when every artifact of this system's
    rebuild recipe is present, the weights are checkpoint-loaded and
    training is skipped entirely; otherwise the system is built cold and
    the store is populated, so the next boot is warm.
    """
    models = [_tiny_model(model_kind, num_classes, image_size,
                          np.random.default_rng(seed + index))
              for index in range(num_workers)]
    link = link or LinkModel(bandwidth_bps=1e9, overhead_seconds=0.0)
    fusion = build_fusion_for([m.feature_dim() for m in models],
                              num_classes=num_classes,
                              rng=np.random.default_rng(seed + 1000))
    warm = False
    digests: dict[str, str] = {}
    recipes: dict[str, dict] = {}
    if store is not None:
        recipes = _demo_recipes(models, fusion, model_kind, image_size,
                                train_fusion, fusion_epochs, seed)
        digests = {name: recipe_digest(recipe)
                   for name, recipe in recipes.items()}
        modules = {f"w{index}": model
                   for index, model in enumerate(models)}
        modules["fusion"] = fusion
        warm = warm_load(store, digests, modules)
    if not warm and train_fusion:
        train_demo_system(models, fusion, image_size, seed, fusion_epochs)
    if not warm and store is not None:
        for index, model in enumerate(models):
            name = f"w{index}"
            store.put(digests[name], model, config=model.config.to_dict(),
                      kind=model_kind,
                      meta={"model_id": name, "recipe": recipes[name]})
        store.put(digests["fusion"], fusion,
                  config=fusion.config.to_dict(), kind="fusion",
                  meta={"model_id": "fusion", "recipe": recipes["fusion"]})
    # Specs are cut after the weights are resolved (warm-loaded or
    # trained), so every worker ships the final state blob.
    specs = [WorkerSpec.from_model(
        f"w{index}", model, model_kind, flops_per_sample=1e6,
        device=DeviceModel(device_id=f"w{index}", macs_per_second=1e12),
        link=link, codec=codec)
        for index, model in enumerate(models)]
    return DemoSystem(specs=specs, models=models, fusion=fusion,
                      input_shape=(3, image_size, image_size),
                      num_classes=num_classes, time_scale=time_scale,
                      transport=transport, codec=codec,
                      warm_booted=warm, artifacts=dict(digests))
