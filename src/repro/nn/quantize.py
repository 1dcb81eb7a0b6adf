"""Post-training per-channel int8 weight quantization.

PR 4 made the *wire* cheap (q8 feature codec); this module applies the
same symmetric-int8 idea to the *weights resident on the device*.  A
trained sub-model is quantized after training, stored as a first-class
artifact (its recipe digest extends the fp32 recipe with a ``quant``
field — see :func:`repro.store.submodel_recipe`), and rebuilt on an edge
worker at int8 footprint: roughly 4x smaller per Linear/Conv weight,
~3-4x smaller serialized checkpoints for the Linear-dominated ViT
sub-models the paper deploys.

Scheme (per output channel, symmetric, no zero point)::

    scale[o] = max(|W[o, ...]|) / 127        (1.0 for all-zero channels)
    Q[o]     = clip(round(W[o] / scale[o]), -127, 127)  as int8
    W'[o]    = Q[o] * scale[o]

Because the scale is per *output* channel it commutes with the GEMM —
``(x @ Q.T) * scale == x @ (Q * scale[:, None]).T`` — so inference never
multiplies the weight by its scale: :meth:`ArrayBackend.linear_q8`
widens one whole layer's ``Q`` to fp32 per call (a transient copy the
size of the fp32 weight, freed on return) and folds ``scale`` into the
output columns.  What stays resident is int8.

Quantized weights live in **buffers** (``weight_q8`` int8 +
``weight_scale`` fp32), not Parameters: they are not trainable, and
``Module.load_state_dict`` casts Parameters to the parameter dtype,
which would silently round-trip int8 through fp32.  Quantized modules
are inference-only; calling them with autograd enabled raises.
"""

from __future__ import annotations

import numpy as np

from . import init, ops
from .backend import get_backend, scratch
from .modules import (Conv2d, Linear, Module, ModuleList, Sequential,
                      patch_gemm)
from .tensor import Tensor, is_grad_enabled, is_inference

SCHEMES = ("int8",)


def _check_scheme(scheme: str) -> None:
    if scheme not in SCHEMES:
        raise ValueError(f"unknown quantization scheme {scheme!r}; "
                         f"supported: {list(SCHEMES)}")


def quantize_array(weight: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-output-channel symmetric int8 quantization of ``weight``.

    Channel axis is 0 — ``(out, in)`` Linear weights and ``(out, c, kh,
    kw)`` Conv kernels both keep their output channel leading.  Returns
    ``(q8, scale)`` with ``q8`` int8 in [-127, 127] and ``scale`` fp32 of
    shape ``(out,)``.  All-zero channels get scale 1.0 so dequantization
    is exact rather than 0/0.
    """
    w = np.asarray(weight, dtype=np.float32)
    if w.ndim < 2:
        raise ValueError("per-channel quantization needs >= 2 dimensions; "
                         f"got shape {w.shape}")
    reduce_axes = tuple(range(1, w.ndim))
    amax = np.abs(w).max(axis=reduce_axes)
    scale = (amax / 127.0).astype(np.float32)
    scale[scale == 0.0] = 1.0
    q = np.rint(w / scale.reshape((-1,) + (1,) * (w.ndim - 1)))
    np.clip(q, -127.0, 127.0, out=q)
    return q.astype(np.int8), scale


def dequantize_array(q8: np.ndarray, scale: np.ndarray,
                     out: np.ndarray | None = None) -> np.ndarray:
    """The fp32 image ``q8 * scale`` (scale broadcast over axis 0)."""
    if out is None:
        out = np.empty(q8.shape, dtype=np.float32)
    np.copyto(out, q8, casting="safe")
    out *= scale.reshape((-1,) + (1,) * (q8.ndim - 1))
    return out


class QuantizedLinear(Module):
    """Inference-only affine layer over an int8 weight.

    Drop-in for :class:`~repro.nn.modules.Linear` on the serving path:
    same state-dict slot names apart from ``weight`` becoming
    ``weight_q8`` + ``weight_scale``, so an int8 artifact is the
    ``state_dict()`` of a :func:`quantize_module`-rewritten model.
    """

    def __init__(self, in_features: int, out_features: int):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.register_buffer(
            "weight_q8", np.zeros((out_features, in_features), dtype=np.int8))
        self.register_buffer(
            "weight_scale", np.ones(out_features, dtype=np.float32))
        self.register_buffer("bias", np.zeros(out_features, dtype=np.float32))

    @staticmethod
    def from_linear(linear: Linear) -> "QuantizedLinear":
        q = QuantizedLinear(linear.in_features, linear.out_features)
        if init.is_unwritten():
            return q                   # garbage in: the int8 state loads next
        q8, scale = quantize_array(linear.weight.data)
        np.copyto(q.weight_q8, q8)
        np.copyto(q.weight_scale, scale)
        np.copyto(q.bias, linear.bias.data)
        return q

    def train(self, mode: bool = True) -> "Module":
        if not mode:
            self.kmajor_weight()       # see Linear.train
        return super().train(mode)

    def kmajor_weight(self) -> np.ndarray:
        """``weight_q8``, rebound K-major if it is not (the int8 twin of
        ``Linear.kmajor_weight``: one resident copy, in GEMM order)."""
        weight = self.weight_q8
        if not weight.flags.f_contiguous:
            weight = np.asfortranarray(weight)
            self.register_buffer("weight_q8", weight)
        return weight

    def infer(self, backend, x: np.ndarray, out=None,
              activation: str | None = None,
              rows: slice | None = None) -> np.ndarray:
        """Raw-array fast path; the polymorphic twin of ``Linear.infer``."""
        weight, scale, bias = self.kmajor_weight(), self.weight_scale, self.bias
        if rows is not None:
            weight, scale = weight[rows], scale[rows]
            bias = bias[rows]
        return backend.linear_q8(x, weight, scale, bias=bias,
                                 activation=activation, out=out)

    def forward(self, x: Tensor) -> Tensor:
        if is_grad_enabled():
            raise RuntimeError(
                "QuantizedLinear is inference-only; run it under "
                "no_grad()/inference_mode() or keep the fp32 model for "
                "training")
        ws = self.workspace if is_inference() else None
        out = scratch(ws, "linear_q8_out",
                      x.shape[:-1] + (self.out_features,), np.float32)
        return Tensor._noback(self.infer(get_backend(), x.data, out=out))

    def __repr__(self):
        return (f"QuantizedLinear(in={self.in_features}, "
                f"out={self.out_features})")


class QuantizedConv2d(Module):
    """Inference-only 2-D convolution over an int8 kernel.

    Convolution lowers to im2col matmuls whose hot operand is the
    *activation* columns, so the kernel is dequantized into workspace
    scratch per call (one small ``(O, C*kh*kw)`` fp32 image) and the
    standard :func:`repro.nn.ops.conv2d` fast path does the rest.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.register_buffer(
            "weight_q8",
            np.zeros((out_channels, in_channels, kernel_size, kernel_size),
                     dtype=np.int8))
        self.register_buffer(
            "weight_scale", np.ones(out_channels, dtype=np.float32))
        self.register_buffer("bias", np.zeros(out_channels, dtype=np.float32))

    @staticmethod
    def from_conv(conv: Conv2d) -> "QuantizedConv2d":
        q = QuantizedConv2d(conv.in_channels, conv.out_channels,
                            conv.kernel_size, stride=conv.stride,
                            padding=conv.padding)
        if init.is_unwritten():
            return q                   # see QuantizedLinear.from_linear
        q8, scale = quantize_array(conv.weight.data)
        np.copyto(q.weight_q8, q8)
        np.copyto(q.weight_scale, scale)
        np.copyto(q.bias, conv.bias.data)
        return q

    def forward(self, x: Tensor) -> Tensor:
        if is_grad_enabled():
            raise RuntimeError(
                "QuantizedConv2d is inference-only; run it under "
                "no_grad()/inference_mode() or keep the fp32 model for "
                "training")
        return ops.conv2d(x, Tensor._noback(self._dequantized()),
                          Tensor._noback(self.bias),
                          self.stride, self.padding, self.workspace)

    def _dequantized(self) -> np.ndarray:
        """The fp32 kernel, in workspace scratch under ``inference_mode()``."""
        ws = self.workspace if is_inference() else None
        return dequantize_array(self.weight_q8, self.weight_scale,
                                out=scratch(ws, "deq_weight",
                                            self.weight_q8.shape, np.float32))

    def infer_patches(self, backend, fields: np.ndarray,
                      out=None) -> np.ndarray:
        """Raw-array twin of ``Conv2d.infer_patches``."""
        return patch_gemm(backend, fields, self._dequantized(), self.bias, out)

    def __repr__(self):
        return (f"QuantizedConv2d({self.in_channels}, {self.out_channels}, "
                f"k={self.kernel_size}, s={self.stride}, p={self.padding})")


def _replace_child(parent: Module, name: str, new: Module) -> None:
    old = parent._modules[name]
    setattr(parent, name, new)
    # Sequential/ModuleList iterate their own lists, not _modules; keep
    # them in sync or the surgery would be invisible to forward().
    if isinstance(parent, Sequential):
        parent._layer_list = [new if layer is old else layer
                              for layer in parent._layer_list]
    elif isinstance(parent, ModuleList):
        parent._items = [new if item is old else item
                         for item in parent._items]


def quantize_module(module: Module, scheme: str = "int8") -> Module:
    """Replace every Linear/Conv2d in ``module`` with its int8 twin.

    In-place surgery on the module tree; returns ``module`` (or the
    quantized replacement when ``module`` itself is a Linear/Conv2d).
    Idempotent: already-quantized layers are left alone.
    """
    _check_scheme(scheme)
    if isinstance(module, Linear):
        return QuantizedLinear.from_linear(module)
    if isinstance(module, Conv2d):
        return QuantizedConv2d.from_conv(module)
    for name, child in list(module._modules.items()):
        if isinstance(child, Linear):
            _replace_child(module, name, QuantizedLinear.from_linear(child))
        elif isinstance(child, Conv2d):
            _replace_child(module, name, QuantizedConv2d.from_conv(child))
        else:
            quantize_module(child, scheme)
    return module


def is_quantized(module: Module) -> bool:
    """Whether any layer of ``module`` carries int8 weights."""
    return any(isinstance(m, (QuantizedLinear, QuantizedConv2d))
               for m in module.modules())
