"""Shared fixtures: tiny datasets and models kept small enough that the
whole suite runs on CPU in minutes."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.training import TrainConfig, train_classifier
from repro.data import cifar10_like, gtzan_like
from repro.edge.device import DeviceModel
from repro.edge.network import LinkModel
from repro.models.vit import ViTConfig, VisionTransformer


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
