"""Fusion MLP (Section IV-E of the paper).

The aggregation device concatenates the feature vectors produced by the N
sub-models and feeds them through a tower-structured MLP::

    N*d*s  ->  lambda * N*d*s  ->  num_classes        (lambda = 0.5)

Training happens once, after all sub-models are frozen.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .. import nn
from ..nn.tensor import Tensor, concat


@dataclasses.dataclass(frozen=True)
class FusionConfig:
    input_dim: int
    num_classes: int
    shrink: float = 0.5   # the paper's lambda, default 0.5
    name: str = "fusion-mlp"

    @property
    def hidden_dim(self) -> int:
        return max(4, int(round(self.input_dim * self.shrink)))

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(data: dict) -> "FusionConfig":
        return FusionConfig(**data)


class FusionMLP(nn.Module):
    """Tower MLP fusing concatenated sub-model features into class logits."""

    def __init__(self, config: FusionConfig, rng: np.random.Generator | None = None):
        super().__init__()
        self.config = config
        self.fc1 = nn.Linear(config.input_dim, config.hidden_dim, rng=rng)
        self.fc2 = nn.Linear(config.hidden_dim, config.num_classes, rng=rng)

    def forward(self, features: Tensor) -> Tensor:
        return self.fc2(self.fc1(features).relu())

    def fuse(self, per_device_features: list[Tensor]) -> Tensor:
        """Concatenate per-device features then classify."""
        return self.forward(concat(per_device_features, axis=-1))

    def predict(self, features: np.ndarray, batch_size: int = 64) -> np.ndarray:
        """Batched raw-array logits via the graph-free inference engine."""
        from ..core.inference import predict as _predict

        return _predict(self, features, batch_size)


def build_fusion_for(feature_dims: list[int], num_classes: int,
                     shrink: float = 0.5,
                     rng: np.random.Generator | None = None) -> FusionMLP:
    """Construct the fusion MLP matching a set of sub-model feature widths."""
    config = FusionConfig(input_dim=int(sum(feature_dims)),
                          num_classes=num_classes, shrink=shrink)
    return FusionMLP(config, rng=rng)
