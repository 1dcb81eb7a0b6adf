"""The three structured-pruning stages of Fig. 2 (Section IV-C).

Every stage scores components (KL divergence by default), selects the
least-important ones given the pruning factor ``s = (h - hp) / h``, and
performs weight surgery.  Stage functions return a *new* model; callers
interleave finetuning (see :mod:`repro.pruning.pipeline`).
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from ..models.vit import VisionTransformer
from . import importance as imp
from .surgery import prune_attention_dims, prune_ffn_hidden, prune_residual_channels

Backend = Literal["kl", "magnitude"]


def pruning_factor(num_heads: int, hp: int) -> float:
    """The paper's ``s = (h - hp) / h``."""
    if not 0 <= hp < num_heads:
        raise ValueError(f"pruning head number hp={hp} must be in [0, {num_heads})")
    return (num_heads - hp) / num_heads


def _target_count(original: int, s: float) -> int:
    return max(1, int(round(original * s)))


def prune_short_connection(model: VisionTransformer, hp: int,
                           probe: imp.Probe | None = None,
                           backend: Backend = "kl") -> VisionTransformer:
    """Stage 1: residual channels d -> s*d (``PruneShortConnection``)."""
    cfg = model.config
    s = pruning_factor(cfg.num_heads, hp)
    if backend == "kl":
        if probe is None:
            raise ValueError("KL backend requires a probe")
        scores = imp.kl_residual_channel_importance(model, probe)
    else:
        scores = imp.magnitude_residual_channel_importance(model)
    keep_count = _target_count(cfg.embed_dim, s)
    keep = np.sort(np.argsort(scores)[-keep_count:])
    return prune_residual_channels(model, keep)


def prune_mhsa(model: VisionTransformer, hp: int,
               probe: imp.Probe | None = None,
               backend: Backend = "kl") -> VisionTransformer:
    """Stage 2: attention width h*dq -> s*h*dq, pruned within heads."""
    cfg = model.config
    s = pruning_factor(cfg.num_heads, hp)
    if backend == "kl":
        if probe is None:
            raise ValueError("KL backend requires a probe")
        scores = imp.kl_attention_importance(model, probe)
    else:
        scores = imp.magnitude_attention_importance(model)
    keep_count = _target_count(cfg.head_dim, s)
    keep_per_head: list[list[np.ndarray]] = []
    for b in range(cfg.depth):
        block_keep = []
        for h in range(cfg.num_heads):
            block_keep.append(np.sort(np.argsort(scores[b, h])[-keep_count:]))
        keep_per_head.append(block_keep)
    return prune_attention_dims(model, keep_per_head)


def prune_ffn(model: VisionTransformer, hp: int,
              probe: imp.Probe | None = None,
              backend: Backend = "kl") -> VisionTransformer:
    """Stage 3: FFN hidden width c -> s*c."""
    cfg = model.config
    s = pruning_factor(cfg.num_heads, hp)
    if backend == "kl":
        if probe is None:
            raise ValueError("KL backend requires a probe")
        scores = imp.kl_ffn_importance(model, probe)
    else:
        scores = imp.magnitude_ffn_importance(model)
    keep_count = _target_count(cfg.resolved_mlp_hidden, s)
    keep_per_block = [np.sort(np.argsort(scores[b])[-keep_count:])
                      for b in range(cfg.depth)]
    return prune_ffn_hidden(model, keep_per_block)


def pruned_dims(config, hp: int) -> dict[str, int]:
    """Analytic target dimensions after all three stages (no weights needed).

    Used by the splitter/profiler to size sub-models without running the
    expensive scoring passes.
    """
    s = pruning_factor(config.num_heads, hp)
    embed = _target_count(config.embed_dim, s)
    head_dim = _target_count(config.head_dim, s)
    hidden = _target_count(config.resolved_mlp_hidden, s)
    return {
        "embed_dim": embed,
        "attn_dim": head_dim * config.num_heads,
        "mlp_hidden": hidden,
        "num_heads": config.num_heads,
    }
