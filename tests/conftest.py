"""Shared fixtures: tiny datasets, models and the three built systems
(ED-ViT, Split-CNN, Split-SNN), kept small enough that the whole suite
runs on CPU in minutes."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.baselines import SplitConfig, build_split
from repro.core.edvit import EDViTConfig, build_edvit
from repro.core.training import TrainConfig, train_classifier
from repro.data import cifar10_like, gtzan_like
from repro.edge.device import DeviceModel, make_fleet
from repro.edge.network import LinkModel
from repro.models.snn import ConvSNN, SNNConfig
from repro.models.vgg import VGG, vgg8_micro_config
from repro.models.vit import ViTConfig, VisionTransformer
from repro.pruning.pipeline import PruneConfig


TINY_IMAGE = 16


@pytest.fixture(scope="session")
def tiny_dataset():
    """A small, learnable 10-class RGB dataset (session-scoped, read-only)."""
    return cifar10_like(image_size=TINY_IMAGE, train_per_class=48,
                        test_per_class=16, noise_std=0.3)


@pytest.fixture(scope="session")
def tiny_audio_dataset():
    return gtzan_like(image_size=TINY_IMAGE, train_per_class=32,
                      test_per_class=12)


def make_tiny_vit(num_classes: int = 10, depth: int = 2, embed_dim: int = 32,
                  num_heads: int = 4, image_size: int = TINY_IMAGE,
                  in_channels: int = 3, seed: int = 0) -> VisionTransformer:
    cfg = ViTConfig(image_size=image_size, patch_size=4,
                    in_channels=in_channels, num_classes=num_classes,
                    depth=depth, embed_dim=embed_dim, num_heads=num_heads,
                    name="vit-test")
    return VisionTransformer(cfg, rng=np.random.default_rng(seed))


@pytest.fixture(scope="session")
def trained_tiny_vit(tiny_dataset):
    """A tiny ViT trained for a few epochs (session-scoped, treat read-only)."""
    model = make_tiny_vit()
    train_classifier(model, tiny_dataset.x_train, tiny_dataset.y_train,
                     TrainConfig(epochs=12, lr=3e-3, seed=0))
    return model


@pytest.fixture(scope="session")
def trained_tiny_vgg(tiny_dataset):
    """A tiny VGG trained for a few epochs (session-scoped, treat read-only)."""
    model = VGG(vgg8_micro_config(num_classes=10, image_size=TINY_IMAGE,
                                  width_scale=0.25),
                rng=np.random.default_rng(0))
    train_classifier(model, tiny_dataset.x_train, tiny_dataset.y_train,
                     TrainConfig(epochs=6, lr=2e-3, seed=0))
    return model


@pytest.fixture(scope="session")
def trained_tiny_snn(tiny_dataset):
    """A tiny ConvSNN trained for a few epochs (session-scoped, read-only)."""
    cfg = SNNConfig(image_size=TINY_IMAGE, num_classes=10, channels=(8, 16),
                    time_steps=3, classifier_hidden=32)
    model = ConvSNN(cfg, rng=np.random.default_rng(0))
    train_classifier(model, tiny_dataset.x_train, tiny_dataset.y_train,
                     TrainConfig(epochs=6, lr=2e-3, seed=0))
    return model


@pytest.fixture(scope="session")
def fast_prune():
    """An Alg. 2 configuration cheap enough for tier-1 ED-ViT builds."""
    return PruneConfig(probe_size=12, head_adapt_epochs=2,
                       stage_finetune_epochs=1, retrain_epochs=4,
                       backend="kl")


# The three methods' systems at N = 2, built once per session.  Each is a
# ``PlannedSystem``; tests that serve or replan one work on a
# ``dataclasses.replace`` copy and leave the fixture untouched.
@pytest.fixture(scope="session")
def edvit_system(trained_tiny_vit, tiny_dataset, fast_prune):
    return build_edvit(
        trained_tiny_vit, tiny_dataset, make_fleet(2),
        EDViTConfig(num_devices=2, memory_budget_bytes=64 * 2 ** 20,
                    prune=fast_prune, fusion_epochs=12, fusion_lr=3e-3,
                    seed=0))


SPLIT_CONFIG = SplitConfig(num_devices=2, keep_ratio=0.5, adapt_epochs=1,
                           finetune_epochs=2, fusion_epochs=8, seed=0)


@pytest.fixture(scope="session")
def split_cnn_system(trained_tiny_vgg, tiny_dataset):
    return build_split(trained_tiny_vgg, tiny_dataset, make_fleet(2),
                       SPLIT_CONFIG)


@pytest.fixture(scope="session")
def split_snn_system(trained_tiny_snn, tiny_dataset):
    return build_split(trained_tiny_snn, tiny_dataset, make_fleet(2),
                       SPLIT_CONFIG)


def _timed(spec, compute_s, transfer_s, device_id=None):
    """``spec`` on a device and link where one image costs ``compute_s``
    of emulated compute and ``transfer_s`` on the wire (raw32 features);
    serve it at ``time_scale=1`` to sleep those times.  The device is
    ``device_id``, by default one of the worker's own."""
    return dataclasses.replace(
        spec,
        device=DeviceModel(device_id=device_id or spec.worker_id,
                           macs_per_second=spec.flops_per_sample / compute_s),
        link=LinkModel(bandwidth_bps=8 * 4 * spec.feature_dim / transfer_s,
                       overhead_seconds=0.0))


@pytest.fixture(scope="session")
def timed_spec():
    """``timed_spec(spec, compute_s, transfer_s, device_id=None)``: see
    :func:`_timed`."""
    return _timed
