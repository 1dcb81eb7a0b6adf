"""Parameter-count and memory-size accounting.

The paper reports model sizes in MB assuming float32 storage; its numbers
match ``parameters × 4 / 2**20`` (e.g. ViT-Base with a 10-class head is
85.86 M parameters = 327.6 MB, the paper's 327.38 MB).  We provide both an
analytic counter — usable for the full-size configs without materializing
86 M floats — and an exact counter for instantiated modules.
"""

from __future__ import annotations

from ..models.vit import ViTConfig
from ..nn.modules import Module

BYTES_PER_PARAM = 4  # float32
MIB = float(2 ** 20)


def vit_param_count(config: ViTConfig) -> int:
    """Analytic parameter count of a (possibly pruned) ViT."""
    d = config.embed_dim
    a = config.resolved_attn_dim
    c = config.resolved_mlp_hidden
    patch_dim = config.in_channels * config.patch_size ** 2

    patch_embed = patch_dim * d + d
    cls_token = d
    pos_embed = (config.num_patches + 1) * d
    per_block = (
        2 * d                 # norm1
        + d * 3 * a + 3 * a   # qkv
        + a * d + d           # output projection
        + 2 * d               # norm2
        + d * c + c           # fc1
        + c * d + d           # fc2
    )
    final_norm = 2 * d
    head = d * config.num_classes + config.num_classes
    return (patch_embed + cls_token + pos_embed
            + config.depth * per_block + final_norm + head)


def param_bytes(num_params: int) -> int:
    return num_params * BYTES_PER_PARAM


def size_mb(num_params: int) -> float:
    """Model size in MB (MiB, to match the paper's reporting)."""
    return param_bytes(num_params) / MIB


def module_param_count(module: Module) -> int:
    """Exact parameter count of an instantiated module."""
    return module.num_parameters()


def module_size_mb(module: Module) -> float:
    return size_mb(module_param_count(module))
