"""VGG baseline model tests."""

import numpy as np
import pytest

from repro import nn
from repro.models.vgg import VGG, VGGConfig, vgg11_tiny_config

RNG = np.random.default_rng(0)


def tiny_vgg(num_classes=5, image_size=32, width_scale=0.125):
    return VGG(vgg11_tiny_config(num_classes=num_classes,
                                 image_size=image_size,
                                 width_scale=width_scale), rng=RNG)


class TestConfig:
    def test_scaled_plan_rounds_channels(self):
        cfg = VGGConfig(plan="vgg11", width_scale=0.5)
        plan = cfg.scaled_plan()
        assert plan[0] == 32  # 64 * 0.5
        assert "M" in plan

    def test_scaled_plan_floor_of_one(self):
        cfg = VGGConfig(plan="vgg11", width_scale=0.001)
        assert min(e for e in cfg.scaled_plan() if e != "M") >= 1

    def test_dict_roundtrip(self):
        cfg = VGGConfig(plan="vgg16", num_classes=7, name="vgg16")
        assert VGGConfig.from_dict(cfg.to_dict()) == cfg

    def test_too_small_image_raises(self):
        with pytest.raises(ValueError):
            VGG(VGGConfig(plan="vgg16", image_size=16))


class TestForward:
    def test_logits_shape(self):
        model = tiny_vgg()
        x = nn.Tensor(RNG.normal(size=(2, 3, 32, 32)).astype(np.float32))
        assert model(x).shape == (2, 5)

    def test_features_shape_matches_feature_dim(self):
        model = tiny_vgg()
        x = nn.Tensor(RNG.normal(size=(2, 3, 32, 32)).astype(np.float32))
        feats = model.forward_features(x)
        assert feats.shape == (2, model.feature_dim())

    def test_features_feed_final_layer(self):
        # forward() == final_linear(forward_features()) in eval mode
        model = tiny_vgg()
        model.eval()
        x = nn.Tensor(RNG.normal(size=(1, 3, 32, 32)).astype(np.float32))
        with nn.no_grad():
            feats = model.forward_features(x)
            final = list(model.classifier)[-1]
            np.testing.assert_allclose(model(x).data, final(feats).data,
                                       rtol=1e-4)

    def test_gradients_reach_all_parameters(self):
        model = tiny_vgg(image_size=32)
        x = nn.Tensor(RNG.normal(size=(2, 3, 32, 32)).astype(np.float32))
        nn.cross_entropy(model(x), np.array([0, 1])).backward()
        missing = [n for n, p in model.named_parameters() if p.grad is None]
        assert not missing

    def test_width_scale_shrinks_model(self):
        wide = VGG(vgg11_tiny_config(width_scale=0.5))
        narrow = VGG(vgg11_tiny_config(width_scale=0.25))
        assert narrow.num_parameters() < wide.num_parameters()

    def test_vgg16_plan_has_13_convs(self):
        cfg = VGGConfig(plan="vgg16", image_size=32, width_scale=0.0625)
        model = VGG(cfg)
        convs = [m for m in model.features if isinstance(m, nn.Conv2d)]
        assert len(convs) == 13
