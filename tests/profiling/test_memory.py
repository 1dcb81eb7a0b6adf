"""Memory/parameter accounting tests, anchored to Table I and Section V."""

import numpy as np
import pytest

from repro.models.vit import ViTConfig, VisionTransformer, vit_base_config, vit_large_config, vit_small_config
from repro.profiling.memory import (
    module_param_count,
    module_size_mb,
    param_bytes,
    size_mb,
    vit_param_count,
)


class TestViTParamAnchors:
    def test_vit_base_1000cls_params(self):
        # Table I: 86.6 M parameters.
        assert vit_param_count(vit_base_config()) / 1e6 == pytest.approx(86.6, abs=0.1)

    def test_vit_small_1000cls_params(self):
        assert vit_param_count(vit_small_config()) / 1e6 == pytest.approx(22.1, abs=0.1)

    def test_vit_large_1000cls_params(self):
        assert vit_param_count(vit_large_config()) / 1e6 == pytest.approx(304.4, abs=0.2)

    def test_vit_base_10cls_size_is_papers_327mb(self):
        # Section V-B: "The original model size is 327.38 MB".
        mb = size_mb(vit_param_count(vit_base_config(num_classes=10)))
        assert mb == pytest.approx(327.38, abs=0.5)

    def test_vit_small_10cls_size(self):
        # Section V-E: 82.71 MB.
        mb = size_mb(vit_param_count(vit_small_config(num_classes=10)))
        assert mb == pytest.approx(82.71, abs=0.2)

    def test_vit_large_10cls_size(self):
        # Section V-E: 1157 MB.
        mb = size_mb(vit_param_count(vit_large_config(num_classes=10)))
        assert mb == pytest.approx(1157, abs=2)

    def test_gtzan_model_size(self):
        # Section V-C: 325.88 MB for the single-channel audio ViT-Base.
        mb = size_mb(vit_param_count(vit_base_config(num_classes=10,
                                                     in_channels=1)))
        assert mb == pytest.approx(325.88, abs=0.5)


class TestAnalyticMatchesInstantiated:
    def test_vit(self):
        cfg = ViTConfig(image_size=8, patch_size=4, num_classes=3, depth=2,
                        embed_dim=16, num_heads=2, attn_dim=8, mlp_hidden=24)
        assert VisionTransformer(cfg).num_parameters() == vit_param_count(cfg)

    def test_module_helpers(self):
        cfg = ViTConfig(image_size=8, patch_size=4, num_classes=3, depth=1,
                        embed_dim=8, num_heads=2)
        model = VisionTransformer(cfg)
        assert module_param_count(model) == vit_param_count(cfg)
        assert module_size_mb(model) == size_mb(vit_param_count(cfg))


class TestUnits:
    def test_param_bytes_float32(self):
        assert param_bytes(1000) == 4000

    def test_size_mb_uses_mib(self):
        assert size_mb(2 ** 20 // 4) == pytest.approx(1.0)

    def test_pruned_submodel_size_ratio(self):
        # ViT-Base keeping 2/12 heads should be ~ (1/6)^2 of the original
        # (the paper's 9.60 MB @ N=10).
        base = vit_base_config(num_classes=10)
        pruned = ViTConfig(num_classes=1, depth=12, embed_dim=128,
                           num_heads=12, attn_dim=120, mlp_hidden=512)
        ratio = vit_param_count(pruned) / vit_param_count(base)
        assert 0.02 < ratio < 0.04
