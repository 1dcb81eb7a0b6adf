"""VGG networks (Simonyan & Zisserman, 2014) for the Split-CNN baseline.

NNFacet — the Split-CNN comparator in Table III / Fig. 7 — splits a
VGG-16 backbone into class-specific sub-models via filter pruning.  We
reproduce that protocol on this implementation.  Channel widths are
parametrized by a ``width_scale`` so channel-wise pruning can instantiate
thinner variants, exactly as filter pruning would.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .. import nn

# Standard VGG layer plans: numbers are conv output channels, "M" is maxpool.
VGG_PLANS: dict[str, list] = {
    "vgg8": [64, "M", 128, "M", 256, 256, "M"],
    "vgg11": [64, "M", 128, "M", 256, 256, "M", 512, 512, "M", 512, 512, "M"],
    "vgg16": [64, 64, "M", 128, 128, "M", 256, 256, 256, "M",
              512, 512, 512, "M", 512, 512, 512, "M"],
}


@dataclasses.dataclass(frozen=True)
class VGGConfig:
    plan: str = "vgg16"
    image_size: int = 224
    in_channels: int = 3
    num_classes: int = 1000
    width_scale: float = 1.0
    classifier_hidden: int = 4096
    batch_norm: bool = True
    name: str = "vgg"
    # Explicit per-layer widths (with "M" entries), set by filter pruning so
    # the config keeps describing the actual architecture.  When present it
    # replaces the named plan + width_scale.
    plan_override: tuple | None = None

    def scaled_plan(self) -> list:
        if self.plan_override is not None:
            return list(self.plan_override)
        out = []
        for entry in VGG_PLANS[self.plan]:
            if entry == "M":
                out.append("M")
            else:
                out.append(max(1, int(round(entry * self.width_scale))))
        return out

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(data: dict) -> "VGGConfig":
        data = dict(data)
        if data.get("plan_override") is not None:
            data["plan_override"] = tuple(data["plan_override"])
        return VGGConfig(**data)


class VGG(nn.Module):
    """VGG backbone + 3-layer classifier head."""

    def __init__(self, config: VGGConfig, rng: np.random.Generator | None = None):
        super().__init__()
        self.config = config

        layers: list[nn.Module] = []
        in_ch = config.in_channels
        num_pools = 0
        for entry in config.scaled_plan():
            if entry == "M":
                layers.append(nn.MaxPool2d(2))
                num_pools += 1
                continue
            layers.append(nn.Conv2d(in_ch, entry, kernel_size=3, padding=1, rng=rng))
            if config.batch_norm:
                layers.append(nn.BatchNorm2d(entry))
            layers.append(nn.ReLU())
            in_ch = entry
        self.features = nn.Sequential(*layers)

        spatial = config.image_size // (2 ** num_pools)
        if spatial < 1:
            raise ValueError(
                f"image_size {config.image_size} too small for plan {config.plan}")
        self._feature_dim = in_ch * spatial * spatial
        hidden = max(8, int(round(config.classifier_hidden * config.width_scale)))
        self.classifier = nn.Sequential(
            nn.Flatten(),
            nn.Linear(self._feature_dim, hidden, rng=rng),
            nn.ReLU(),
            nn.Linear(hidden, hidden, rng=rng),
            nn.ReLU(),
            nn.Linear(hidden, config.num_classes, rng=rng),
        )

    def forward_features(self, x: nn.Tensor) -> nn.Tensor:
        """Penultimate activations transmitted to the fusion device."""
        feat = self.features(x)
        out = nn.ops.flatten(feat, 1)
        # The penultimate stack of ``classifier`` (its last layer makes the
        # logits), read from the Sequential on every call: a list taken at
        # construction would keep serving the fp32 layers that
        # ``quantize_module`` has since replaced.
        for layer in list(self.classifier)[1:-1]:
            out = layer(out)
        return out

    def forward(self, x: nn.Tensor) -> nn.Tensor:
        return self.classifier(self.features(x))

    def feature_dim(self) -> int:
        hidden_layer: nn.Linear = list(self.classifier)[-3]
        return hidden_layer.out_features


def vgg11_tiny_config(num_classes: int = 10, image_size: int = 32,
                      width_scale: float = 0.25) -> VGGConfig:
    """Scaled-down VGG for trained baseline experiments on synthetic data."""
    return VGGConfig(plan="vgg11", image_size=image_size, num_classes=num_classes,
                     width_scale=width_scale, classifier_hidden=256, name="vgg11-tiny")


def vgg8_micro_config(num_classes: int = 10, image_size: int = 16,
                      width_scale: float = 0.25) -> VGGConfig:
    """A 3-pool VGG for 16x16 experiments (vgg11/16 pool below 1 px there)."""
    return VGGConfig(plan="vgg8", image_size=image_size, num_classes=num_classes,
                     width_scale=width_scale, classifier_hidden=128, name="vgg8-micro")
