"""Weight surgery: build a smaller ViT from a larger one by slicing weights.

Each function materializes a brand-new :class:`VisionTransformer` with a
reduced :class:`ViTConfig` and copies over the retained slices, so pruned
sub-models remain ordinary ViTs (the property Section IV-C highlights:
"even after pruning, the sub-models still retain the structure of Vision
Transformer").

Axis conventions (``nn.Linear`` stores weight as ``(out_features,
in_features)``):

* residual channels ``d`` appear as: patch-conv output channels, cls/pos
  embedding last axis, LayerNorm params, qkv *input* columns, attention
  output-projection *output* rows, fc1 input columns, fc2 output rows,
  final norm, and head input columns;
* attention dims appear as rows of the qkv projection — laid out
  ``[q | k | v]``, each section head-major ``(h, head_dim)`` — and as input
  columns of the output projection;
* FFN hidden dims appear as fc1 output rows and fc2 input columns.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..models.vit import ViTConfig, VisionTransformer


def _check_unique_sorted(indices: np.ndarray, bound: int, label: str) -> np.ndarray:
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1 or idx.size == 0:
        raise ValueError(f"{label}: need a non-empty 1-D index array")
    if len(np.unique(idx)) != len(idx):
        raise ValueError(f"{label}: indices must be unique")
    if idx.min() < 0 or idx.max() >= bound:
        raise ValueError(f"{label}: indices out of range [0, {bound})")
    return np.sort(idx)


def prune_residual_channels(model: VisionTransformer,
                            keep: np.ndarray) -> VisionTransformer:
    """Stage 1 — keep only residual-stream channels ``keep`` (d -> len(keep))."""
    cfg = model.config
    keep = _check_unique_sorted(keep, cfg.embed_dim, "residual channels")
    new_cfg = dataclasses.replace(cfg, embed_dim=len(keep),
                                  attn_dim=cfg.resolved_attn_dim,
                                  mlp_hidden=cfg.resolved_mlp_hidden)
    new = VisionTransformer(new_cfg)

    new.patch_embed.proj.weight.data = model.patch_embed.proj.weight.data[keep].copy()
    new.patch_embed.proj.bias.data = model.patch_embed.proj.bias.data[keep].copy()
    new.cls_token.data = model.cls_token.data[:, :, keep].copy()
    new.pos_embed.data = model.pos_embed.data[:, :, keep].copy()

    for old_block, new_block in zip(model.blocks, new.blocks):
        new_block.norm1.weight.data = old_block.norm1.weight.data[keep].copy()
        new_block.norm1.bias.data = old_block.norm1.bias.data[keep].copy()
        new_block.attn.qkv.weight.data = old_block.attn.qkv.weight.data[:, keep].copy()
        new_block.attn.qkv.bias.data = old_block.attn.qkv.bias.data.copy()
        new_block.attn.proj.weight.data = old_block.attn.proj.weight.data[keep].copy()
        new_block.attn.proj.bias.data = old_block.attn.proj.bias.data[keep].copy()
        new_block.norm2.weight.data = old_block.norm2.weight.data[keep].copy()
        new_block.norm2.bias.data = old_block.norm2.bias.data[keep].copy()
        new_block.mlp.fc1.weight.data = old_block.mlp.fc1.weight.data[:, keep].copy()
        new_block.mlp.fc1.bias.data = old_block.mlp.fc1.bias.data.copy()
        new_block.mlp.fc2.weight.data = old_block.mlp.fc2.weight.data[keep].copy()
        new_block.mlp.fc2.bias.data = old_block.mlp.fc2.bias.data[keep].copy()

    new.norm.weight.data = model.norm.weight.data[keep].copy()
    new.norm.bias.data = model.norm.bias.data[keep].copy()
    new.head.weight.data = model.head.weight.data[:, keep].copy()
    new.head.bias.data = model.head.bias.data.copy()
    return new


def prune_attention_dims(model: VisionTransformer,
                         keep_per_head: list[list[np.ndarray]]) -> VisionTransformer:
    """Stage 2 — keep per-head projection dims.

    ``keep_per_head[block][head]`` lists the head-local dims to keep; every
    head of a block must keep the same count so the reshape-based attention
    stays rectangular (this realizes the paper's "reduce total heads to
    s×h without discarding any head").
    """
    cfg = model.config
    if len(keep_per_head) != cfg.depth:
        raise ValueError("need keep indices for every block")
    counts = {len(_check_unique_sorted(np.asarray(k), cfg.head_dim, "attn dims"))
              for block in keep_per_head for k in block}
    if len(counts) != 1:
        raise ValueError("all heads must keep the same number of dims")
    if any(len(block) != cfg.num_heads for block in keep_per_head):
        raise ValueError("need keep indices for every head")
    kept_per_head = counts.pop()
    new_attn = kept_per_head * cfg.num_heads
    new_cfg = dataclasses.replace(cfg, attn_dim=new_attn,
                                  mlp_hidden=cfg.resolved_mlp_hidden)
    new = VisionTransformer(new_cfg)

    _copy_embedding(model, new)
    a = cfg.resolved_attn_dim
    for b, (old_block, new_block) in enumerate(zip(model.blocks, new.blocks)):
        section = np.concatenate([
            np.sort(np.asarray(keep_per_head[b][h], dtype=np.int64)) + h * cfg.head_dim
            for h in range(cfg.num_heads)])
        rows = np.concatenate([section, a + section, 2 * a + section])
        new_block.norm1.weight.data = old_block.norm1.weight.data.copy()
        new_block.norm1.bias.data = old_block.norm1.bias.data.copy()
        new_block.attn.qkv.weight.data = old_block.attn.qkv.weight.data[rows].copy()
        new_block.attn.qkv.bias.data = old_block.attn.qkv.bias.data[rows].copy()
        new_block.attn.proj.weight.data = old_block.attn.proj.weight.data[:, section].copy()
        new_block.attn.proj.bias.data = old_block.attn.proj.bias.data.copy()
        new_block.norm2.weight.data = old_block.norm2.weight.data.copy()
        new_block.norm2.bias.data = old_block.norm2.bias.data.copy()
        new_block.mlp.fc1.weight.data = old_block.mlp.fc1.weight.data.copy()
        new_block.mlp.fc1.bias.data = old_block.mlp.fc1.bias.data.copy()
        new_block.mlp.fc2.weight.data = old_block.mlp.fc2.weight.data.copy()
        new_block.mlp.fc2.bias.data = old_block.mlp.fc2.bias.data.copy()
    _copy_tail(model, new)
    return new


def prune_ffn_hidden(model: VisionTransformer,
                     keep_per_block: list[np.ndarray]) -> VisionTransformer:
    """Stage 3 — keep FFN hidden units per block (c -> len(keep))."""
    cfg = model.config
    if len(keep_per_block) != cfg.depth:
        raise ValueError("need keep indices for every block")
    counts = {len(_check_unique_sorted(np.asarray(k), cfg.resolved_mlp_hidden, "ffn"))
              for k in keep_per_block}
    if len(counts) != 1:
        raise ValueError("all blocks must keep the same hidden width")
    new_cfg = dataclasses.replace(cfg, attn_dim=cfg.resolved_attn_dim,
                                  mlp_hidden=counts.pop())
    new = VisionTransformer(new_cfg)

    _copy_embedding(model, new)
    for b, (old_block, new_block) in enumerate(zip(model.blocks, new.blocks)):
        keep = np.sort(np.asarray(keep_per_block[b], dtype=np.int64))
        new_block.norm1.weight.data = old_block.norm1.weight.data.copy()
        new_block.norm1.bias.data = old_block.norm1.bias.data.copy()
        new_block.attn.qkv.weight.data = old_block.attn.qkv.weight.data.copy()
        new_block.attn.qkv.bias.data = old_block.attn.qkv.bias.data.copy()
        new_block.attn.proj.weight.data = old_block.attn.proj.weight.data.copy()
        new_block.attn.proj.bias.data = old_block.attn.proj.bias.data.copy()
        new_block.norm2.weight.data = old_block.norm2.weight.data.copy()
        new_block.norm2.bias.data = old_block.norm2.bias.data.copy()
        new_block.mlp.fc1.weight.data = old_block.mlp.fc1.weight.data[keep].copy()
        new_block.mlp.fc1.bias.data = old_block.mlp.fc1.bias.data[keep].copy()
        new_block.mlp.fc2.weight.data = old_block.mlp.fc2.weight.data[:, keep].copy()
        new_block.mlp.fc2.bias.data = old_block.mlp.fc2.bias.data.copy()
    _copy_tail(model, new)
    return new


def replace_classifier_head(model: VisionTransformer, num_classes: int,
                            rng: np.random.Generator | None = None) -> VisionTransformer:
    """Clone the model with a freshly initialized ``num_classes``-way head."""
    cfg = dataclasses.replace(model.config, num_classes=num_classes,
                              attn_dim=model.config.resolved_attn_dim,
                              mlp_hidden=model.config.resolved_mlp_hidden)
    new = VisionTransformer(cfg, rng=rng)
    _copy_embedding(model, new)
    for old_block, new_block in zip(model.blocks, new.blocks):
        for name, param in old_block.named_parameters():
            dict(new_block.named_parameters())[name].data = param.data.copy()
    new.norm.weight.data = model.norm.weight.data.copy()
    new.norm.bias.data = model.norm.bias.data.copy()
    return new


def _copy_embedding(src: VisionTransformer, dst: VisionTransformer) -> None:
    dst.patch_embed.proj.weight.data = src.patch_embed.proj.weight.data.copy()
    dst.patch_embed.proj.bias.data = src.patch_embed.proj.bias.data.copy()
    dst.cls_token.data = src.cls_token.data.copy()
    dst.pos_embed.data = src.pos_embed.data.copy()


def _copy_tail(src: VisionTransformer, dst: VisionTransformer) -> None:
    dst.norm.weight.data = src.norm.weight.data.copy()
    dst.norm.bias.data = src.norm.bias.data.copy()
    dst.head.weight.data = src.head.weight.data.copy()
    dst.head.bias.data = src.head.bias.data.copy()
