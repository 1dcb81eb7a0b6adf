"""Analytic FLOPs (MAC) accounting for ViT models — Section III of the paper.

The paper estimates energy as proportional to multiply-accumulate counts:

* fully-connected structures (patch embedding, FFN, MLP head) contribute
  ``FC_in × FC_out`` MACs per token;
* MHSA contributes ``3·p·d² + 2·p²·d`` MACs, i.e. the Q/K/V projections
  plus the two attention matmuls (the output projection is *not* counted —
  this matches the paper's own numbers: a sub-model with half the heads of
  ViT-Base reports exactly ViT-Small's 4.25 GMACs).

:func:`paper_flops` is that Section III accounting (used for the tables
so ratios line up with the paper).
"""

from __future__ import annotations

import dataclasses

from ..models.vit import ViTConfig


@dataclasses.dataclass(frozen=True)
class FlopsBreakdown:
    """Per-component MAC counts for one forward pass of a ViT."""

    patch_embed: int
    attention_qkv: int
    attention_scores: int
    ffn: int
    head: int

    @property
    def total(self) -> int:
        return (self.patch_embed + self.attention_qkv + self.attention_scores
                + self.ffn + self.head)


def _breakdown(config: ViTConfig) -> FlopsBreakdown:
    p_img = config.num_patches            # patches from the image
    p = p_img + 1                         # +1 CLS token inside the blocks
    d = config.embed_dim
    a = config.resolved_attn_dim
    c = config.resolved_mlp_hidden
    patch_dim = config.in_channels * config.patch_size ** 2

    patch_embed = p_img * patch_dim * d
    qkv = config.depth * 3 * p * d * a
    scores = config.depth * 2 * p * p * a
    ffn = config.depth * 2 * p * d * c
    head = d * config.num_classes
    return FlopsBreakdown(patch_embed, qkv, scores, ffn, head)


def paper_flops(config: ViTConfig) -> int:
    """MAC count following Section III exactly (no attention output proj)."""
    return _breakdown(config).total


def mlp_flops(dims: list[int]) -> int:
    """MACs of a plain MLP given its layer widths (e.g. the fusion MLP)."""
    return sum(a * b for a, b in zip(dims[:-1], dims[1:]))


def fusion_flops(input_dim: int, num_classes: int, shrink: float = 0.5) -> int:
    hidden = max(4, int(round(input_dim * shrink)))
    return mlp_flops([input_dim, hidden, num_classes])


def vgg_flops(config) -> int:
    """MAC count of one VGG forward pass (convs + classifier).

    Conv layer: k^2 * C_in * C_out * H_out * W_out; maxpool is free in MAC
    terms.  Used to place the Split-CNN baseline on the simulated devices.
    """
    from ..models.vgg import VGGConfig  # local import to avoid a cycle

    assert isinstance(config, VGGConfig)
    total = 0
    in_ch = config.in_channels
    spatial = config.image_size
    for entry in config.scaled_plan():
        if entry == "M":
            spatial //= 2
            continue
        total += 9 * in_ch * entry * spatial * spatial
        in_ch = entry
    flat = in_ch * spatial * spatial
    hidden = max(8, int(round(config.classifier_hidden * config.width_scale)))
    total += flat * hidden + hidden * hidden + hidden * config.num_classes
    return total


def snn_flops(config) -> int:
    """Synaptic-operation count of one rate-coded ConvSNN forward pass.

    Every simulation time step re-runs the conv stack, so cost scales with
    ``time_steps`` — the reason Split-SNN shows the highest latency in the
    paper's Fig. 7 despite its small memory footprint.
    """
    from ..models.snn import SNNConfig

    assert isinstance(config, SNNConfig)
    per_step = 0
    in_ch = config.in_channels
    spatial = config.image_size
    for out_ch in config.scaled_channels():
        per_step += 9 * in_ch * out_ch * spatial * spatial
        spatial //= 2
        in_ch = out_ch
    flat = in_ch * spatial * spatial
    hidden = max(8, int(round(config.classifier_hidden * config.width_scale)))
    per_step += flat * hidden
    return per_step * config.time_steps + hidden * config.num_classes


def model_flops(kind: str, config) -> int:
    """Per-sample MAC count for any model family.

    ``kind`` is a :data:`repro.edge.runtime.MODEL_KINDS` key; the planning
    layer uses this to profile heterogeneous sub-models uniformly when
    building a :class:`~repro.planning.DeploymentPlan`.
    """
    from ..edge.runtime import MODEL_KINDS  # deferred: avoids an import cycle

    return MODEL_KINDS[kind].flops(config)
