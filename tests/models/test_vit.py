"""Vision Transformer tests: configs, shapes, attention mechanics."""

import dataclasses

import numpy as np

from repro import nn
import pytest

from repro import nn
from repro.models.vit import (
    MultiHeadSelfAttention,
    STANDARD_CONFIGS,
    ViTConfig,
    VisionTransformer,
    vit_base_config,
    vit_large_config,
    vit_small_config,
    vit_tiny_config,
)

RNG = np.random.default_rng(0)


def tiny_cfg(**kw):
    defaults = dict(image_size=8, patch_size=4, in_channels=3, num_classes=5,
                    depth=2, embed_dim=16, num_heads=2)
    defaults.update(kw)
    return ViTConfig(**defaults)


class TestViTConfig:
    def test_table1_hyperparameters(self):
        s, b, l = vit_small_config(), vit_base_config(), vit_large_config()
        assert (s.depth, s.embed_dim, s.num_heads) == (12, 384, 6)
        assert (b.depth, b.embed_dim, b.num_heads) == (12, 768, 12)
        assert (l.depth, l.embed_dim, l.num_heads) == (24, 1024, 16)

    def test_num_patches(self):
        assert vit_base_config().num_patches == 196
        assert tiny_cfg().num_patches == 4

    def test_head_dim(self):
        assert vit_base_config().head_dim == 64

    def test_attn_dim_defaults_to_embed_dim(self):
        assert vit_base_config().resolved_attn_dim == 768

    def test_mlp_hidden_defaults_to_4x(self):
        assert vit_base_config().resolved_mlp_hidden == 3072

    def test_pruned_config_decoupled_dims(self):
        cfg = tiny_cfg(attn_dim=8, mlp_hidden=24)
        assert cfg.resolved_attn_dim == 8
        assert cfg.head_dim == 4
        assert cfg.resolved_mlp_hidden == 24

    def test_invalid_patch_size_raises(self):
        with pytest.raises(ValueError):
            tiny_cfg(image_size=10, patch_size=4)

    def test_attn_dim_not_divisible_raises(self):
        with pytest.raises(ValueError):
            tiny_cfg(attn_dim=7, num_heads=2)

    def test_dict_roundtrip(self):
        cfg = tiny_cfg(attn_dim=8)
        assert ViTConfig.from_dict(cfg.to_dict()) == cfg


class TestForward:
    def test_logits_shape(self):
        model = VisionTransformer(tiny_cfg(), rng=RNG)
        x = nn.Tensor(RNG.normal(size=(3, 3, 8, 8)).astype(np.float32))
        assert model(x).shape == (3, 5)

    def test_features_shape(self):
        model = VisionTransformer(tiny_cfg(embed_dim=24, num_heads=3), rng=RNG)
        x = nn.Tensor(RNG.normal(size=(2, 3, 8, 8)).astype(np.float32))
        assert model.forward_features(x).shape == (2, 24)

    def test_feature_dim(self):
        model = VisionTransformer(tiny_cfg(embed_dim=24, num_heads=3), rng=RNG)
        assert model.feature_dim() == 24

    def test_single_channel_input(self):
        model = VisionTransformer(tiny_cfg(in_channels=1), rng=RNG)
        x = nn.Tensor(RNG.normal(size=(2, 1, 8, 8)).astype(np.float32))
        assert model(x).shape == (2, 5)

    def test_batch_independence(self):
        model = VisionTransformer(tiny_cfg(), rng=RNG)
        model.eval()
        x = RNG.normal(size=(4, 3, 8, 8)).astype(np.float32)
        with nn.no_grad():
            full = model(nn.Tensor(x)).data
            single = model(nn.Tensor(x[:1])).data
        np.testing.assert_allclose(full[:1], single, atol=1e-5)

    def test_gradients_reach_all_parameters(self):
        model = VisionTransformer(tiny_cfg(), rng=RNG)
        x = nn.Tensor(RNG.normal(size=(2, 3, 8, 8)).astype(np.float32))
        loss = nn.cross_entropy(model(x), np.array([0, 1]))
        loss.backward()
        missing = [name for name, p in model.named_parameters() if p.grad is None]
        assert not missing, f"no gradient for {missing}"

    def test_decoupled_attn_dim_forward(self):
        model = VisionTransformer(tiny_cfg(embed_dim=16, attn_dim=8,
                                           num_heads=2), rng=RNG)
        x = nn.Tensor(RNG.normal(size=(2, 3, 8, 8)).astype(np.float32))
        assert model(x).shape == (2, 5)


class TestAttention:
    def test_output_shape_with_narrow_attn(self):
        attn = MultiHeadSelfAttention(embed_dim=16, num_heads=2, attn_dim=8,
                                      rng=RNG)
        x = nn.Tensor(RNG.normal(size=(1, 4, 16)).astype(np.float32))
        assert attn(x).shape == (1, 4, 16)

    def test_indivisible_attn_dim_raises(self):
        with pytest.raises(ValueError):
            MultiHeadSelfAttention(embed_dim=16, num_heads=3, attn_dim=16)

    def test_scale_uses_head_dim(self):
        attn = MultiHeadSelfAttention(embed_dim=16, num_heads=2, attn_dim=8)
        assert attn.scale == pytest.approx(1.0 / np.sqrt(4))

    def test_permutation_equivariance_without_pos(self):
        # Self-attention alone is permutation-equivariant across tokens.
        attn = MultiHeadSelfAttention(embed_dim=8, num_heads=2, rng=RNG)
        x = RNG.normal(size=(1, 4, 8)).astype(np.float32)
        perm = np.array([2, 0, 3, 1])
        with nn.no_grad():
            out = attn(nn.Tensor(x)).data
            out_perm = attn(nn.Tensor(x[:, perm])).data
        np.testing.assert_allclose(out[:, perm], out_perm, atol=1e-5)


class TestBuilders:
    def test_standard_configs_registered(self):
        assert set(STANDARD_CONFIGS) == {"vit-small", "vit-base", "vit-large",
                                         "vit-tiny"}

    def test_tiny_config_defaults(self):
        cfg = vit_tiny_config()
        assert cfg.embed_dim == 64
        assert cfg.image_size == 32

    def test_deterministic_given_rng(self):
        m1 = VisionTransformer(tiny_cfg(), rng=np.random.default_rng(7))
        m2 = VisionTransformer(tiny_cfg(), rng=np.random.default_rng(7))
        np.testing.assert_array_equal(m1.head.weight.data, m2.head.weight.data)


class TestParamCountsMatchAnalytic:
    @pytest.mark.parametrize("kw", [
        {},
        {"embed_dim": 24, "num_heads": 3},
        {"attn_dim": 8},
        {"mlp_hidden": 40},
        {"in_channels": 1},
        {"depth": 3},
    ])
    def test_instantiated_matches_formula(self, kw):
        from repro.profiling import vit_param_count

        cfg = tiny_cfg(**kw)
        model = VisionTransformer(cfg)
        assert model.num_parameters() == vit_param_count(cfg)
