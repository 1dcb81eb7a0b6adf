"""Vision Transformer (Dosovitskiy et al., 2020) on :mod:`repro.nn`.

The implementation is deliberately close to the original ViT so that the
paper's three-stage structured pruning (Fig. 2) has well-defined targets:

* ``embed_dim`` (paper's *d*) — the residual-stream width, prunable in
  stage 1;
* ``attn_dim`` (paper's *h × d_q*) — the total width of the Q/K/V
  projections across heads, prunable in stage 2 without discarding whole
  heads (dims are pruned *within* heads, so ``attn_dim`` need not equal
  ``embed_dim`` after pruning);
* ``mlp_hidden`` (paper's *c*) — the FFN expansion width, prunable in
  stage 3.

Standard configurations (ViT-Small/Base/Large at 224×224, patch 16) match
Table I of the paper; scaled-down configurations are provided for trainable
experiments on synthetic data.

Two forwards, one of each
-------------------------
The module classes' ``forward`` methods are the **autograd forward**: they
build the graph training needs and are the reference every test compares
against.  With gradients disabled, ``Block.forward`` and
``VisionTransformer.forward_features`` run the **flat graph-free
schedule** instead — :func:`_block_forward` and
:meth:`VisionTransformer._infer_features`, the only graph-free ViT
implementation — which touches raw arrays only and issues every kernel
through the active ``ArrayBackend``:

* **K-major weights.**  Each GEMM goes through ``Linear.infer`` /
  ``QuantizedLinear.infer``, which hold the weight F-contiguous (rebound
  once, at ``eval()``), so ``x @ W.T`` is the NN GEMM and an output-row
  slice of ``W`` is a free view.  The parameter itself is the only copy;
  nothing derived is cached, so nothing can go stale.
* **CLS-only tail.**  ``forward_features`` reads one row of the last
  block, so that block runs with a query-row restriction: K and V for
  every token, everything else for the CLS row.
* **One arena block per pass, bounded in bytes.**  Blocks run in
  sequence and share the model's per-thread ``Workspace`` (under
  ``inference_mode()``; fresh arrays otherwise).  The batch runs in passes
  of as many images as fit :data:`ARENA_BYTES` (at least one), so the
  arena is a property of the model, not of the caller's batch: 18 images
  of the 32 px depth-6 dim-192 sub-model (0.44 MiB each) per pass, one
  image of ViT-Base/16 (6.39 MiB).  Each pass takes one workspace buffer
  of ``n`` times the per-image table (:meth:`VisionTransformer._arena_table`,
  the seven tags each at its largest request) and cuts it into one fixed
  region per tag, so a pass allocates its scratch once, at its final
  size.  The residual stream is updated in place in its region.
* **Aliasing.**  The arena is scratch only.  What ``forward_features`` and
  ``Block.forward`` return is always a fresh array, and ``Block.forward``
  copies its input before the in-place schedule runs on it.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .. import nn
from ..nn import ops
from ..nn.backend import get_backend, scratch
from ..nn.tensor import Tensor, concat, is_grad_enabled, is_inference

# Most scratch one graph-free ViT forward holds: the batch runs in passes
# of ``ARENA_BYTES // per-image arena`` images.  Per-image forward time of
# the 32 px depth-6 dim-192 sub-model is flat from 8 to 64 images, so
# larger passes buy nothing; 8 MiB still runs its largest served batch
# (16 images, 7.08 MiB) as one pass.
ARENA_BYTES = 8 << 20


@dataclasses.dataclass(frozen=True)
class ViTConfig:
    """Architecture hyper-parameters of a (possibly pruned) ViT."""

    image_size: int = 224
    patch_size: int = 16
    in_channels: int = 3
    num_classes: int = 1000
    depth: int = 12
    embed_dim: int = 768
    num_heads: int = 12
    attn_dim: int | None = None     # total q/k/v width; defaults to embed_dim
    mlp_hidden: int | None = None   # defaults to 4 * embed_dim
    dropout: float = 0.0
    name: str = "vit"

    def __post_init__(self):
        if self.image_size % self.patch_size != 0:
            raise ValueError("image_size must be divisible by patch_size")
        if self.resolved_attn_dim % self.num_heads != 0:
            raise ValueError("attn_dim must be divisible by num_heads")

    @property
    def resolved_attn_dim(self) -> int:
        return self.attn_dim if self.attn_dim is not None else self.embed_dim

    @property
    def resolved_mlp_hidden(self) -> int:
        return self.mlp_hidden if self.mlp_hidden is not None else 4 * self.embed_dim

    @property
    def num_patches(self) -> int:
        return (self.image_size // self.patch_size) ** 2

    @property
    def head_dim(self) -> int:
        return self.resolved_attn_dim // self.num_heads

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(data: dict) -> "ViTConfig":
        return ViTConfig(**data)


class PatchEmbed(nn.Module):
    """Non-overlapping patch projection implemented as a strided conv."""

    def __init__(self, config: ViTConfig,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.config = config
        self.proj = nn.Conv2d(config.in_channels, config.embed_dim,
                              kernel_size=config.patch_size,
                              stride=config.patch_size, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        # (B, C, H, W) -> (B, D, H/ps, W/ps) -> (B, num_patches, D)
        feat = self.proj(x)
        b, d = feat.shape[0], feat.shape[1]
        return feat.reshape(b, d, -1).swapaxes(1, 2)

    def infer(self, bk, x: np.ndarray, fields: np.ndarray,
              rows: np.ndarray) -> np.ndarray:
        """Graph-free ``forward`` on raw arrays: ``(B, P, D)`` patch rows.

        The patches do not overlap (stride == kernel, no padding), so
        gathering the receptive fields is one reshaped copy and the whole
        convolution one GEMM whose rows are already in token order.  The
        fields and the rows are written into the flat arena regions
        ``fields`` and ``rows``.
        """
        b, c, h, w = x.shape
        ps = self.config.patch_size
        gh, gw = h // ps, w // ps
        fields = _take(fields, b, gh, gw, c, ps, ps)
        np.copyto(fields, x.reshape(b, c, gh, ps, gw, ps)
                  .transpose(0, 2, 4, 1, 3, 5))
        rows = self.proj.infer_patches(
            bk, fields.reshape(b * gh * gw, c * ps * ps),
            out=_take(rows, b * gh * gw, self.config.embed_dim))
        return rows.reshape(b, gh * gw, self.config.embed_dim)


class MultiHeadSelfAttention(nn.Module):
    """MHSA with a decoupled internal width so pruning can shrink it.

    Q/K/V each project ``embed_dim -> attn_dim``; the output projection maps
    ``attn_dim -> embed_dim``.  With ``attn_dim == embed_dim`` this is the
    textbook ViT block.
    """

    def __init__(self, embed_dim: int, num_heads: int, attn_dim: int | None = None,
                 rng: np.random.Generator | None = None):
        super().__init__()
        attn_dim = attn_dim if attn_dim is not None else embed_dim
        if attn_dim % num_heads != 0:
            raise ValueError("attn_dim must be divisible by num_heads")
        self.embed_dim = embed_dim
        self.num_heads = num_heads
        self.attn_dim = attn_dim
        self.head_dim = attn_dim // num_heads
        self.scale = 1.0 / math.sqrt(self.head_dim)
        self.qkv = nn.Linear(embed_dim, 3 * attn_dim, rng=rng)
        self.proj = nn.Linear(attn_dim, embed_dim, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        b, p, _ = x.shape
        h, dh = self.num_heads, self.head_dim
        qkv = self.qkv(x)                              # (B, P, 3*A)
        qkv = qkv.reshape(b, p, 3, h, dh)
        qkv = qkv.transpose(2, 0, 3, 1, 4)             # (3, B, H, P, dh)
        q, k, v = qkv[0], qkv[1], qkv[2]
        attn = q.matmul(k.swapaxes(-1, -2)) * self.scale   # (B, H, P, P)
        attn = ops.softmax(attn, axis=-1)
        out = attn.matmul(v)                           # (B, H, P, dh)
        out = out.transpose(0, 2, 1, 3).reshape(b, p, h * dh)
        return self.proj(out)


class FeedForward(nn.Module):
    """Two-layer MLP with GELU (the FFN of a transformer block)."""

    def __init__(self, embed_dim: int, hidden_dim: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.fc1 = nn.Linear(embed_dim, hidden_dim, rng=rng)
        self.fc2 = nn.Linear(hidden_dim, embed_dim, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.fc2(ops.gelu(self.fc1(x), self.workspace))


class Block(nn.Module):
    """Pre-norm transformer encoder block: x + MHSA(LN(x)); x + FFN(LN(x))."""

    def __init__(self, config: ViTConfig,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.config = config
        self.norm1 = nn.LayerNorm(config.embed_dim)
        self.attn = MultiHeadSelfAttention(config.embed_dim, config.num_heads,
                                           config.resolved_attn_dim, rng=rng)
        self.norm2 = nn.LayerNorm(config.embed_dim)
        self.mlp = FeedForward(config.embed_dim, config.resolved_mlp_hidden, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        if not is_grad_enabled():
            ws = self.workspace if is_inference() else None
            # The schedule updates the residual stream in place; the
            # caller's input stays its own and the output is fresh.
            stream = x.data.copy()
            b, p, _ = stream.shape
            regions = _regions(ws, _block_table(self.config, p), b,
                               stream.dtype)
            return Tensor._noback(
                _block_forward(self, get_backend(), stream, regions))
        x = x + self.attn(self.norm1(x))
        x = x + self.mlp(self.norm2(x))
        return x


def _block_table(cfg: ViTConfig, p: int) -> dict[str, int]:
    """Per-image elements of the five arena tags one block of ``p`` tokens
    uses, each at its largest request in :func:`_block_forward`."""
    a = cfg.resolved_attn_dim
    return {
        "branch": p * cfg.embed_dim,    # LayerNorm outputs, branch results
        "qkv": p * max(3 * a, cfg.resolved_mlp_hidden),   # then MLP hidden
        "query": a,                     # the CLS-only tail's query row
        "scores": cfg.num_heads * p * p,
        "context": p * a,
    }


def _regions(ws, table: dict[str, int], n: int,
             dtype) -> dict[str, np.ndarray]:
    """One arena block for ``n`` images, cut into each tag's flat region.

    The block is one ``Workspace`` buffer (a fresh array when ``ws`` is
    ``None``) of ``n`` times the table's sum; each tag owns the next
    ``n`` times its entry, in table order, so regions never overlap and
    a pass asks the workspace for its scratch once, at its final size.
    """
    block = scratch(ws, "arena", (n * sum(table.values()),), dtype)
    regions, start = {}, 0
    for tag, count in table.items():
        regions[tag] = block[start:start + n * count]
        start += n * count
    return regions


def _take(region: np.ndarray, *shape: int) -> np.ndarray:
    """The leading ``shape`` of a flat arena region, as a contiguous view."""
    return region[:math.prod(shape)].reshape(shape)


def _block_forward(block: Block, bk, x: np.ndarray,
                   regions: dict[str, np.ndarray],
                   cls_only: bool = False) -> np.ndarray:
    """The graph-free schedule of one pre-norm block, flat on raw arrays.

    ``x`` is the ``(B, P, D)`` residual stream and is updated **in
    place**; every other array is a view of one of the flat arena
    ``regions`` (:func:`_regions`), which all blocks share, since blocks
    run one after another.  ``"branch"`` holds each LayerNorm output and
    then, once the GEMM reading it is done, that residual branch's
    result; ``"qkv"`` holds the projections and then, once attention has
    read them, the MLP's hidden layer.  Every kernel is issued through
    the backend ``bk`` (the layers' ``infer`` methods; ``QuantizedLinear``
    has the same one as ``Linear``).

    With ``cls_only`` the block is evaluated for the CLS query row alone:
    K and V still cover every token, but Q, the scores, the context,
    ``proj`` and the whole MLP shrink to one row per image, and the
    result is a fresh ``(B, 1, D)`` array (``x`` is left untouched).
    The Q / KV split is an output-row slice of the one ``qkv`` layer.
    """
    attn, mlp = block.attn, block.mlp
    b, p, d = x.shape
    nh, dh, a = attn.num_heads, attn.head_dim, attn.attn_dim
    nq = 1 if cls_only else p
    branch, qkv = regions["branch"], regions["qkv"]

    normed = block.norm1.infer(bk, x, out=_take(branch, b, p, d))
    if cls_only:
        q = attn.qkv.infer(bk, normed[:, :1], rows=slice(0, a),
                           out=_take(regions["query"], b, 1, a))
        kv = attn.qkv.infer(bk, normed, rows=slice(a, 3 * a),
                            out=_take(qkv, b, p, 2 * a))
        kv = kv.reshape(b, p, 2, nh, dh)
        k, v = kv[:, :, 0], kv[:, :, 1]
    else:
        projected = attn.qkv.infer(bk, normed, out=_take(qkv, b, p, 3 * a))
        projected = projected.reshape(b, p, 3, nh, dh)
        q, k, v = projected[:, :, 0], projected[:, :, 1], projected[:, :, 2]
    q = q.reshape(b, nq, nh, dh)
    q *= attn.scale                     # on P x dh per head, not P x P
    scores = bk.matmul(q.transpose(0, 2, 1, 3), k.transpose(0, 2, 3, 1),
                       out=_take(regions["scores"], b, nh, nq, p))
    bk.softmax(scores, axis=-1, out=scores)
    # Written head-interleaved, so (B, nq, h * dh) is a plain reshape.
    context = _take(regions["context"], b, nq, nh, dh)
    bk.matmul(scores, v.transpose(0, 2, 1, 3),
              out=context.transpose(0, 2, 1, 3))
    out = attn.proj.infer(bk, context.reshape(b, nq, a),
                          out=_take(branch, b, nq, d))
    if cls_only:
        x = x[:, :1] + out
    else:
        x += out

    normed = block.norm2.infer(bk, x, out=_take(branch, b, nq, d))
    hidden = mlp.fc1.infer(bk, normed, activation="gelu",
                           out=_take(qkv, b, nq, mlp.fc1.out_features))
    x += mlp.fc2.infer(bk, hidden, out=_take(branch, b, nq, d))
    return x


class VisionTransformer(nn.Module):
    """ViT classifier with a CLS token and learned positional embeddings."""

    def __init__(self, config: ViTConfig, rng: np.random.Generator | None = None):
        super().__init__()
        self.config = config
        self.patch_embed = PatchEmbed(config, rng)
        self.cls_token = nn.Parameter(
            nn.init.trunc_normal(rng, (1, 1, config.embed_dim)))
        self.pos_embed = nn.Parameter(
            nn.init.trunc_normal(rng, (1, config.num_patches + 1, config.embed_dim)))
        self.dropout = nn.Dropout(config.dropout, rng=rng)
        self.blocks = nn.ModuleList([Block(config, rng) for _ in range(config.depth)])
        self.norm = nn.LayerNorm(config.embed_dim)
        self.head = nn.Linear(config.embed_dim, config.num_classes, rng=rng)

    # ------------------------------------------------------------------
    def _embed(self, x: Tensor) -> Tensor:
        tokens = self.patch_embed(x)                    # (B, P, D)
        b = tokens.shape[0]
        cls = self.cls_token + nn.zeros((b, 1, self.config.embed_dim))
        tokens = concat([cls, tokens], axis=1)
        return self.dropout(tokens + self.pos_embed)

    def _arena_table(self) -> dict[str, int]:
        """Per-image elements of each of the arena's seven tags at its
        largest request (:meth:`PatchEmbed.infer`, :meth:`_infer_cls`,
        :func:`_block_forward`), in layout order: the one source of the
        arena's size."""
        cfg = self.config
        p = cfg.num_patches + 1
        return {
            "fields": cfg.num_patches * cfg.in_channels * cfg.patch_size ** 2,
            "tokens": p * cfg.embed_dim,        # the residual stream
            **_block_table(cfg, p),             # the patch rows in "branch"
        }

    def _arena_bytes_per_image(self, dtype) -> int:
        """Scratch one image needs in the arena: the table's sum."""
        return sum(self._arena_table().values()) * np.dtype(dtype).itemsize

    def _infer_features(self, x: np.ndarray) -> np.ndarray:
        """Graph-free ``forward_features`` on raw arrays.

        One arena (this module's workspace, per thread, under
        ``inference_mode()``; fresh allocations otherwise) serves the
        embedding and every block, for as many images per pass as fit
        :data:`ARENA_BYTES`: each pass takes one block of ``n`` times the
        per-image table and cuts it into the tags' regions.  Each pass's
        CLS rows are normalized straight into the returned ``(B, D)``
        array, which is always fresh.
        """
        bk = get_backend()
        ws = self.workspace if is_inference() else None
        dtype = np.result_type(x.dtype, np.float32)
        table = self._arena_table()
        step = max(1, ARENA_BYTES // self._arena_bytes_per_image(dtype))
        features = np.empty((len(x), self.config.embed_dim), dtype)
        for start in range(0, len(x), step):
            images = x[start:start + step]
            regions = _regions(ws, table, len(images), dtype)
            cls = self._infer_cls(bk, images, regions)
            self.norm.infer(bk, cls, out=features[start:start + step, None])
        return features

    def _infer_cls(self, bk, x: np.ndarray,
                   regions: dict[str, np.ndarray]) -> np.ndarray:
        """One pass of the schedule: the last block's ``(B, 1, D)`` CLS rows.

        The residual stream lives in the arena's ``"tokens"`` region and
        is updated in place; the last block runs for the CLS row only,
        which is all the final norm reads.
        """
        pos = self.pos_embed.data
        patches = self.patch_embed.infer(bk, x, regions["fields"],
                                         regions["branch"])
        tokens = _take(regions["tokens"], x.shape[0], *pos.shape[1:])
        np.add(self.cls_token.data, pos[:, :1], out=tokens[:, :1])
        np.add(patches, pos[:, 1:], out=tokens[:, 1:])
        if self.dropout.training and self.dropout.p > 0.0:
            tokens = self.dropout(Tensor._noback(tokens)).data
        last = len(self.blocks) - 1
        for i, block in enumerate(self.blocks):
            tokens = _block_forward(block, bk, tokens, regions,
                                    cls_only=i == last)
        return tokens[:, :1]

    def forward_features(self, x: Tensor) -> Tensor:
        """Return the normalized CLS embedding (B, embed_dim).

        This is the feature each edge device transmits to the fusion device
        (Section IV-E): its byte size is what Section V-D's communication
        accounting measures.
        """
        if not is_grad_enabled():
            return Tensor._noback(self._infer_features(x.data))
        tokens = self._embed(x)
        for block in self.blocks:
            tokens = block(tokens)
        return self.norm(tokens)[:, 0, :]

    def forward(self, x: Tensor) -> Tensor:
        return self.head(self.forward_features(x))

    # ------------------------------------------------------------------
    def feature_dim(self) -> int:
        return self.config.embed_dim


# ----------------------------------------------------------------------
# Standard configurations (Table I of the paper)
# ----------------------------------------------------------------------
def vit_small_config(num_classes: int = 1000,
                     in_channels: int = 3) -> ViTConfig:
    return ViTConfig(image_size=224, patch_size=16, in_channels=in_channels,
                     num_classes=num_classes, depth=12, embed_dim=384, num_heads=6,
                     name="vit-small")


def vit_base_config(num_classes: int = 1000,
                    in_channels: int = 3) -> ViTConfig:
    return ViTConfig(image_size=224, patch_size=16, in_channels=in_channels,
                     num_classes=num_classes, depth=12, embed_dim=768, num_heads=12,
                     name="vit-base")


def vit_large_config(num_classes: int = 1000,
                     in_channels: int = 3) -> ViTConfig:
    return ViTConfig(image_size=224, patch_size=16, in_channels=in_channels,
                     num_classes=num_classes, depth=24, embed_dim=1024, num_heads=16,
                     name="vit-large")


def vit_tiny_config(num_classes: int = 10,
                    in_channels: int = 3) -> ViTConfig:
    """Scaled-down ViT used for *trained* experiments on synthetic data.

    The full-size configs above are exercised analytically (FLOPs, memory,
    device latency); this config keeps end-to-end training tractable on CPU
    while preserving every structural element the pruner touches.
    """
    return ViTConfig(image_size=32, patch_size=8, in_channels=in_channels,
                     num_classes=num_classes, depth=4, embed_dim=64,
                     num_heads=4, name="vit-tiny")


STANDARD_CONFIGS = {
    "vit-small": vit_small_config,
    "vit-base": vit_base_config,
    "vit-large": vit_large_config,
    "vit-tiny": vit_tiny_config,
}
