"""FLOPs accounting tests — including the paper's Table I/II anchor points."""

import pytest

from repro.models.vit import ViTConfig, vit_base_config, vit_large_config, vit_small_config
from repro.profiling.flops import _breakdown, fusion_flops, mlp_flops, paper_flops


class TestPaperAnchors:
    def test_vit_small_matches_table1_exactly(self):
        # The paper's Section III formula reproduces its ViT-Small number.
        assert paper_flops(vit_small_config()) / 1e9 == pytest.approx(4.25, abs=0.01)

    def test_vit_base_within_5pct_of_table1(self):
        # Table I reports 16.86 G; the paper's own Section III formula
        # yields 16.17 G (4.1 % low), and adding the attention output
        # projection it omits gives 17.56 G: neither accounting hits 16.86.
        assert paper_flops(vit_base_config()) / 1e9 == pytest.approx(16.86, rel=0.05)

    def test_vit_large_within_6pct_of_table1(self):
        assert paper_flops(vit_large_config()) / 1e9 == pytest.approx(59.69, rel=0.06)

    def test_half_heads_of_base_equals_small(self):
        # The paper's N=2 sub-model (6 of 12 heads) reports ViT-Small FLOPs.
        pruned = ViTConfig(num_classes=1000, depth=12, embed_dim=384,
                           num_heads=12, attn_dim=384, mlp_hidden=1536)
        small = vit_small_config()
        assert paper_flops(pruned) == pytest.approx(paper_flops(small), rel=1e-3)

    def test_gtzan_channel_difference(self):
        # Table II: 16.86 vs 16.79 G comes only from the 1- vs 3-channel
        # patch embedding (Δ = 196 * 512 * 768 MACs).
        rgb = paper_flops(vit_base_config(num_classes=10))
        mono = paper_flops(vit_base_config(num_classes=10, in_channels=1))
        assert (rgb - mono) == 196 * 2 * 256 * 768


class TestBreakdownStructure:
    def test_total_is_sum_of_parts(self):
        bd = _breakdown(vit_base_config())
        parts = (bd.patch_embed + bd.attention_qkv + bd.attention_scores
                 + bd.ffn + bd.head)
        assert bd.total == parts == paper_flops(vit_base_config())

    def test_ffn_dominates_vit_base(self):
        bd = _breakdown(vit_base_config())
        assert bd.ffn > bd.attention_qkv > bd.attention_scores


class TestScaling:
    def test_quadratic_in_embed_dim(self):
        # FFN+QKV dominate and scale ~d^2; halving d should cut FLOPs to
        # roughly a quarter (a bit more due to the p^2*d terms).
        base = paper_flops(vit_base_config())
        half = paper_flops(ViTConfig(depth=12, embed_dim=384, num_heads=12,
                                     attn_dim=384, mlp_hidden=1536))
        assert 0.2 < half / base < 0.3

    def test_linear_in_depth(self):
        d12 = paper_flops(vit_base_config())
        d24 = paper_flops(ViTConfig(depth=24, embed_dim=768, num_heads=12))
        blocks12 = d12 - _breakdown(vit_base_config()).patch_embed
        assert (d24 - d12) == pytest.approx(blocks12
                                            - vit_base_config().embed_dim * 1000,
                                            rel=1e-6)

    def test_num_classes_only_affects_head(self):
        a = paper_flops(vit_base_config(num_classes=10))
        b = paper_flops(vit_base_config(num_classes=1000))
        assert b - a == 768 * 990


class TestMLPFlops:
    def test_mlp_flops(self):
        assert mlp_flops([4, 8, 2]) == 4 * 8 + 8 * 2

    def test_fusion_flops_uses_shrink(self):
        assert fusion_flops(100, 10, shrink=0.5) == 100 * 50 + 50 * 10

    def test_fusion_hidden_floor(self):
        assert fusion_flops(2, 2) == 2 * 4 + 4 * 2
