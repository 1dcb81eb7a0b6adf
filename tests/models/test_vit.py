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
    def test_attention_weights_are_distributions(self):
        attn = MultiHeadSelfAttention(embed_dim=16, num_heads=2, rng=RNG)
        x = nn.Tensor(RNG.normal(size=(2, 5, 16)).astype(np.float32))
        weights = attn.attention_weights(x)
        assert weights.shape == (2, 2, 5, 5)
        np.testing.assert_allclose(weights.sum(axis=-1), 1.0, rtol=1e-5)
        assert (weights >= 0).all()

    def test_attention_weights_are_the_maps_forward_mixes(self):
        """The maps token pruning ranks by are the ones the forward pass
        applies to V: weights @ V, merged and projected, is the output."""
        attn = MultiHeadSelfAttention(embed_dim=16, num_heads=2, attn_dim=8,
                                      rng=RNG)
        x = RNG.normal(size=(2, 5, 16)).astype(np.float32)
        with nn.no_grad():
            weights = attn.attention_weights(nn.Tensor(x))
            qkv = attn.qkv(nn.Tensor(x)).data.reshape(2, 5, 3, 2, 4)
            v = qkv[:, :, 2].transpose(0, 2, 1, 3)          # (B, H, P, dh)
            mixed = (weights @ v).transpose(0, 2, 1, 3).reshape(2, 5, 8)
            expected = attn.proj(nn.Tensor(mixed)).data
            out = attn(nn.Tensor(x)).data
        np.testing.assert_allclose(out, expected, rtol=1e-5, atol=1e-6)

    def test_attention_weights_build_no_graph(self):
        attn = MultiHeadSelfAttention(embed_dim=8, num_heads=2, rng=RNG)
        x = nn.Tensor(RNG.normal(size=(1, 3, 8)).astype(np.float32),
                      requires_grad=True)
        weights = attn.attention_weights(x)
        assert type(weights) is np.ndarray
        assert nn.is_grad_enabled()              # the mode is restored

    def test_attention_weights_follow_a_token_permutation(self):
        attn = MultiHeadSelfAttention(embed_dim=8, num_heads=2, rng=RNG)
        x = RNG.normal(size=(1, 4, 8)).astype(np.float32)
        perm = np.array([2, 0, 3, 1])
        weights = attn.attention_weights(nn.Tensor(x))
        permuted = attn.attention_weights(nn.Tensor(x[:, perm]))
        np.testing.assert_allclose(permuted,
                                   weights[:, :, perm][:, :, :, perm],
                                   rtol=1e-5, atol=1e-6)

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


class TestTokenPruning:
    def make(self, depth=3):
        model = VisionTransformer(tiny_cfg(image_size=16, depth=depth),
                                  rng=np.random.default_rng(5))
        model.eval()
        return model

    def x(self, n=3):
        return nn.Tensor(RNG.normal(size=(n, 3, 16, 16)).astype(np.float32))

    def test_ratio_one_is_identity(self):
        model = self.make()
        x = self.x()
        with nn.no_grad():
            a = model.forward_features(x).data
            b = model.forward_features(x, token_keep_ratio=1.0).data
        np.testing.assert_allclose(a, b, atol=1e-6)

    def test_none_is_identity(self):
        model = self.make()
        x = self.x()
        with nn.no_grad():
            a = model.forward_features(x).data
            b = model.forward_features(x, token_keep_ratio=None).data
        np.testing.assert_allclose(a, b, atol=1e-6)

    def test_pruned_output_shape(self):
        model = self.make()
        with nn.no_grad():
            out = model.forward_features(self.x(), token_keep_ratio=0.5)
        assert out.shape == (3, 16)
        assert np.isfinite(out.data).all()

    def test_forward_logits_with_ratio(self):
        model = self.make()
        with nn.no_grad():
            out = model(self.x(), token_keep_ratio=0.5)
        assert out.shape == (3, 5)

    def test_invalid_ratio_raises(self):
        model = self.make()
        with pytest.raises(ValueError):
            with nn.no_grad():
                model.forward_features(self.x(), token_keep_ratio=0.0)

    def test_single_block_model_unaffected(self):
        model = self.make(depth=1)
        x = self.x()
        with nn.no_grad():
            a = model.forward_features(x).data
            b = model.forward_features(x, token_keep_ratio=0.25).data
        np.testing.assert_allclose(a, b, atol=1e-6)

    def test_keeps_cls_and_the_most_attended_patches_in_order(self):
        """The CLS row of the next block's head-averaged attention ranks the
        patches; CLS stays first and the kept patches keep their order."""
        model = self.make()
        with nn.no_grad():
            tokens = model.blocks[0](model._embed(self.x()))
            kept = model._prune_tokens(tokens, 0.25,
                                       next_block=model.blocks[1]).data
            block = model.blocks[1]
            attn = block.attn.attention_weights(block.norm1(tokens))
        scores = attn.mean(axis=1)[:, 0, 1:]                 # (B, 16)
        for image, row in enumerate(scores):
            top = np.sort(np.argsort(row)[-4:]) + 1
            np.testing.assert_array_equal(
                kept[image], tokens.data[image, np.r_[0, top]])

    def test_pruning_is_per_image(self):
        model = self.make()
        x = self.x(n=4)
        with nn.no_grad():
            batched = model.forward_features(x, token_keep_ratio=0.25).data
            single = [model.forward_features(nn.Tensor(x.data[i:i + 1]),
                                             token_keep_ratio=0.25).data
                      for i in range(4)]
        np.testing.assert_allclose(batched, np.concatenate(single),
                                   rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("ratio, patches_kept",
                             [(1.0, 16), (0.5, 8), (0.25, 4), (0.01, 1)])
    def test_kept_token_count(self, ratio, patches_kept):
        """``max(1, round(P * ratio))`` patches survive, plus CLS."""
        model = self.make()
        with nn.no_grad():
            tokens = model._embed(self.x())
            kept = model._prune_tokens(tokens, ratio,
                                       next_block=model.blocks[1])
        assert kept.shape == (3, 1 + patches_kept, 16)

    def test_output_changes_when_pruning(self):
        model = self.make()
        x = self.x()
        with nn.no_grad():
            a = model.forward_features(x).data
            b = model.forward_features(x, token_keep_ratio=0.25).data
        assert not np.allclose(a, b)


class TestTokenPrunedFlops:
    def test_ratio_one_equals_paper(self):
        from repro.profiling import paper_flops, token_pruned_flops

        cfg = vit_base_config()
        assert token_pruned_flops(cfg, 1.0) == paper_flops(cfg)

    def test_pruning_reduces_flops(self):
        from repro.profiling import paper_flops, token_pruned_flops

        cfg = vit_base_config()
        assert token_pruned_flops(cfg, 0.5) < paper_flops(cfg)

    def test_monotone_in_ratio(self):
        from repro.profiling import token_pruned_flops

        cfg = vit_base_config()
        values = [token_pruned_flops(cfg, r) for r in (0.25, 0.5, 0.75, 1.0)]
        assert values == sorted(values)

    def test_invalid_ratio_raises(self):
        from repro.profiling import token_pruned_flops

        with pytest.raises(ValueError):
            token_pruned_flops(vit_base_config(), 1.5)
