"""Component-importance scoring for structured ViT pruning (Section IV-C).

The paper scores a prunable component by the KL divergence between the
output distribution of the original model and the model with that component
removed: components whose removal barely moves the output distribution are
pruned first.

We implement removal by temporarily zeroing every weight slice the
component feeds (an exact ablation for attention dims and FFN units, and
the standard masking approximation for residual channels, where LayerNorm
statistics still see the zeroed channel).  A magnitude backend (L1 norm of
the same slices) is provided for the KL-vs-magnitude ablation bench.
"""

from __future__ import annotations

import contextlib
import dataclasses

import numpy as np

from ..core.inference import predict_probabilities
from ..models.vit import VisionTransformer
from ..nn.losses import kl_divergence
from ..nn.modules import Parameter


@dataclasses.dataclass
class Probe:
    """A probe batch plus the original model's reference distribution."""

    x: np.ndarray
    reference: np.ndarray  # (N, num_classes) probabilities

    @staticmethod
    def from_model(model: VisionTransformer, x: np.ndarray) -> "Probe":
        return Probe(x=x, reference=predict_probabilities(model, x))


@contextlib.contextmanager
def _zeroed(slices: list[tuple[Parameter, tuple]]):
    """Temporarily zero ``param[index]`` for each (param, index) pair."""
    saved = []
    try:
        for param, index in slices:
            saved.append((param, index, param.data[index].copy()))
            param.data[index] = 0.0
        yield
    finally:
        for param, index, value in saved:
            param.data[index] = value


def _divergence(model: VisionTransformer, probe: Probe) -> float:
    q = predict_probabilities(model, probe.x)
    return float(kl_divergence(probe.reference, q).mean())


# ----------------------------------------------------------------------
# Residual channels (stage 1)
# ----------------------------------------------------------------------
def _residual_channel_slices(model: VisionTransformer, channel: int):
    i = channel
    slices = [
        (model.patch_embed.proj.weight, (i,)),
        (model.patch_embed.proj.bias, (i,)),
        (model.cls_token, (slice(None), slice(None), i)),
        (model.pos_embed, (slice(None), slice(None), i)),
        (model.norm.weight, (i,)),
        (model.norm.bias, (i,)),
    ]
    for block in model.blocks:
        slices.extend([
            (block.norm1.weight, (i,)), (block.norm1.bias, (i,)),
            (block.norm2.weight, (i,)), (block.norm2.bias, (i,)),
            (block.attn.proj.weight, (i,)), (block.attn.proj.bias, (i,)),
            (block.mlp.fc2.weight, (i,)), (block.mlp.fc2.bias, (i,)),
        ])
    return slices


def kl_residual_channel_importance(model: VisionTransformer,
                                   probe: Probe) -> np.ndarray:
    """KL divergence caused by removing each residual channel; shape (d,)."""
    d = model.config.embed_dim
    scores = np.empty(d, dtype=np.float64)
    for i in range(d):
        with _zeroed(_residual_channel_slices(model, i)):
            scores[i] = _divergence(model, probe)
    return scores


def magnitude_residual_channel_importance(model: VisionTransformer) -> np.ndarray:
    d = model.config.embed_dim
    scores = np.zeros(d, dtype=np.float64)
    scores += np.abs(model.patch_embed.proj.weight.data).sum(axis=(1, 2, 3))
    scores += np.abs(model.pos_embed.data[0]).sum(axis=0)
    for block in model.blocks:
        scores += np.abs(block.attn.qkv.weight.data).sum(axis=0)
        scores += np.abs(block.attn.proj.weight.data).sum(axis=1)
        scores += np.abs(block.mlp.fc1.weight.data).sum(axis=0)
        scores += np.abs(block.mlp.fc2.weight.data).sum(axis=1)
    scores += np.abs(model.head.weight.data).sum(axis=0)
    return scores


# ----------------------------------------------------------------------
# Attention dims (stage 2)
# ----------------------------------------------------------------------
def _attention_unit_slices(model: VisionTransformer, block_idx: int,
                           head: int, dim: int):
    cfg = model.config
    a = cfg.resolved_attn_dim
    offset = head * cfg.head_dim + dim
    block = model.blocks[block_idx]
    rows = (np.array([offset, a + offset, 2 * a + offset]),)
    return [
        (block.attn.qkv.weight, rows),
        (block.attn.qkv.bias, rows),
        (block.attn.proj.weight, (slice(None), offset)),
    ]


def kl_attention_importance(model: VisionTransformer,
                            probe: Probe) -> np.ndarray:
    """KL per (block, head, dim) unit; shape (depth, h, head_dim)."""
    cfg = model.config
    scores = np.empty((cfg.depth, cfg.num_heads, cfg.head_dim), dtype=np.float64)
    for b in range(cfg.depth):
        for h in range(cfg.num_heads):
            for k in range(cfg.head_dim):
                with _zeroed(_attention_unit_slices(model, b, h, k)):
                    scores[b, h, k] = _divergence(model, probe)
    return scores


def magnitude_attention_importance(model: VisionTransformer) -> np.ndarray:
    cfg = model.config
    a = cfg.resolved_attn_dim
    scores = np.empty((cfg.depth, cfg.num_heads, cfg.head_dim), dtype=np.float64)
    for b, block in enumerate(model.blocks):
        qkv = np.abs(block.attn.qkv.weight.data)
        per_row = qkv.sum(axis=1)
        q, k, v = per_row[:a], per_row[a:2 * a], per_row[2 * a:]
        proj = np.abs(block.attn.proj.weight.data).sum(axis=0)
        combined = (q + k + v + proj).reshape(cfg.num_heads, cfg.head_dim)
        scores[b] = combined
    return scores


# ----------------------------------------------------------------------
# FFN hidden units (stage 3)
# ----------------------------------------------------------------------
def _ffn_unit_slices(model: VisionTransformer, block_idx: int, unit: int):
    block = model.blocks[block_idx]
    return [
        (block.mlp.fc1.weight, (unit,)),
        (block.mlp.fc1.bias, (unit,)),
        (block.mlp.fc2.weight, (slice(None), unit)),
    ]


def kl_ffn_importance(model: VisionTransformer, probe: Probe) -> np.ndarray:
    """KL per (block, hidden unit); shape (depth, c)."""
    cfg = model.config
    c = cfg.resolved_mlp_hidden
    scores = np.empty((cfg.depth, c), dtype=np.float64)
    for b in range(cfg.depth):
        for u in range(c):
            with _zeroed(_ffn_unit_slices(model, b, u)):
                scores[b, u] = _divergence(model, probe)
    return scores


def magnitude_ffn_importance(model: VisionTransformer) -> np.ndarray:
    cfg = model.config
    scores = np.empty((cfg.depth, cfg.resolved_mlp_hidden), dtype=np.float64)
    for b, block in enumerate(model.blocks):
        fc1 = np.abs(block.mlp.fc1.weight.data).sum(axis=1)
        fc2 = np.abs(block.mlp.fc2.weight.data).sum(axis=0)
        scores[b] = fc1 + fc2
    return scores
