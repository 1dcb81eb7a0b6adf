"""Neural-network functional operations built on :mod:`repro.nn.tensor`.

Each function takes and returns :class:`~repro.nn.tensor.Tensor` objects and
registers an analytic backward rule.  Convolution and pooling use an
im2col/col2im lowering so the heavy lifting stays inside backend matmuls.

The kernels worth timing (the GEMMs, softmax, layer-norm, the im2col
lowering) go through the active :class:`~repro.nn.backend.ArrayBackend`
(see :func:`repro.nn.use_backend`), so a profiler sees every call these
rules make; everything else — elementwise math, the backward passes'
scatters, ``col2im`` — is plain numpy.  When gradients are disabled each
op takes a **graph-free fast path**: no backward closure is allocated,
and — under ``inference_mode()`` — outputs and scratch live in the
caller's shape-keyed :class:`~repro.nn.backend.Workspace`.
"""

from __future__ import annotations

import math

import numpy as np

from . import init
from .backend import Workspace, apply_activation, get_backend, scratch
from .tensor import Tensor, is_grad_enabled, is_inference

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def _ws(workspace: Workspace | None) -> Workspace | None:
    """The caller's workspace when buffer reuse is allowed, else ``None``."""
    return workspace if is_inference() else None


# ----------------------------------------------------------------------
# Activations
# ----------------------------------------------------------------------
def relu(x: Tensor) -> Tensor:
    return x.relu()


def gelu(x: Tensor, workspace: Workspace | None = None) -> Tensor:
    """Gaussian Error Linear Unit (tanh approximation, as used by ViT)."""
    if not is_grad_enabled():
        out = scratch(_ws(workspace), "gelu", x.shape, x.dtype)
        np.copyto(out, x.data)
        return Tensor._noback(apply_activation("gelu", out))
    data = x.data
    # x*x*x, not x**3: numpy's generic float pow is ~70x slower.
    inner = _SQRT_2_OVER_PI * (data + 0.044715 * (data * data * data))
    tanh_inner = np.tanh(inner)
    out_data = 0.5 * data * (1.0 + tanh_inner)

    def backward(grad):
        sech2 = 1.0 - tanh_inner * tanh_inner
        d_inner = _SQRT_2_OVER_PI * (1.0 + 3 * 0.044715 * (data * data))
        local = 0.5 * (1.0 + tanh_inner) + 0.5 * data * sech2 * d_inner
        return [(x, grad * local)]

    return Tensor._make(out_data, (x,), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    if not is_grad_enabled():
        return Tensor._noback(get_backend().softmax(x.data, axis=axis))
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    out_data = exp / exp.sum(axis=axis, keepdims=True)

    def backward(grad):
        # dL/dx = s * (g - sum(g * s))
        dot = (grad * out_data).sum(axis=axis, keepdims=True)
        return [(x, out_data * (grad - dot))]

    return Tensor._make(out_data, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    if not is_grad_enabled():
        return Tensor._noback(get_backend().log_softmax(x.data, axis=axis))
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_sum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_sum
    soft = np.exp(out_data)

    def backward(grad):
        return [(x, grad - soft * grad.sum(axis=axis, keepdims=True))]

    return Tensor._make(out_data, (x,), backward)


def dropout(x: Tensor, p: float, training: bool, rng=None) -> Tensor:
    """Inverted dropout; identity when not training or p == 0.  ``rng=None``
    draws from :func:`repro.nn.init.default_rng`."""
    if not training or p <= 0.0:
        return x
    rng = rng or init.default_rng()
    keep = 1.0 - p
    mask = (rng.random(x.shape) < keep).astype(x.data.dtype) / keep
    out_data = x.data * mask
    if not is_grad_enabled():
        return Tensor._noback(out_data)

    def backward(grad):
        return [(x, grad * mask)]

    return Tensor._make(out_data, (x,), backward)


# ----------------------------------------------------------------------
# Normalization
# ----------------------------------------------------------------------
def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5,
               workspace: Workspace | None = None) -> Tensor:
    """Layer normalization over the last dimension with affine transform."""
    b = get_backend()
    if not is_grad_enabled():
        out = b.layer_norm(x.data, weight.data, bias.data, eps,
                           out=scratch(_ws(workspace), "layer_norm",
                                       x.shape, x.dtype))
        return Tensor._noback(out)
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    normed = centered * inv_std
    out_data = normed * weight.data + bias.data
    d = x.shape[-1]

    def backward(grad):
        g_normed = grad * weight.data
        g_var = (g_normed * centered * -0.5 * inv_std ** 3).sum(axis=-1, keepdims=True)
        g_mu = (-g_normed * inv_std).sum(axis=-1, keepdims=True) \
            + g_var * (-2.0 * centered.mean(axis=-1, keepdims=True))
        gx = g_normed * inv_std + g_var * 2.0 * centered / d + g_mu / d
        reduce_axes = tuple(range(grad.ndim - 1))
        gw = (grad * normed).sum(axis=reduce_axes)
        gb = grad.sum(axis=reduce_axes)
        return [(x, gx), (weight, gw), (bias, gb)]

    return Tensor._make(out_data, (x, weight, bias), backward)


def batch_norm_2d(x: Tensor, weight: Tensor, bias: Tensor,
                  running_mean, running_var,
                  training: bool, momentum: float = 0.1, eps: float = 1e-5) -> Tensor:
    """2-D batch norm over (N, C, H, W); mutates running statistics in-place."""
    if training:
        mu = x.data.mean(axis=(0, 2, 3), keepdims=True)
        var = x.data.var(axis=(0, 2, 3), keepdims=True)
        running_mean *= (1.0 - momentum)
        running_mean += momentum * mu.reshape(-1)
        running_var *= (1.0 - momentum)
        running_var += momentum * var.reshape(-1)
    else:
        mu = running_mean.reshape(1, -1, 1, 1)
        var = running_var.reshape(1, -1, 1, 1)

    inv_std = 1.0 / np.sqrt(var + eps)
    w = weight.data.reshape(1, -1, 1, 1)
    bias_col = bias.data.reshape(1, -1, 1, 1)

    if not is_grad_enabled():
        # Fold the whole normalization into one per-channel affine map.
        scale = w * inv_std
        shift = bias_col - mu * scale
        return Tensor._noback(x.data * scale + shift)

    centered = x.data - mu
    normed = centered * inv_std
    out_data = normed * w + bias_col
    count = x.data.size // x.shape[1]

    def backward(grad):
        g_normed = grad * w
        if training:
            g_var = (g_normed * centered * -0.5 * inv_std ** 3).sum(axis=(0, 2, 3), keepdims=True)
            g_mu = (-g_normed * inv_std).sum(axis=(0, 2, 3), keepdims=True) \
                + g_var * (-2.0 * centered.mean(axis=(0, 2, 3), keepdims=True))
            gx = g_normed * inv_std + g_var * 2.0 * centered / count + g_mu / count
        else:
            gx = g_normed * inv_std
        gw = (grad * normed).sum(axis=(0, 2, 3))
        gb = grad.sum(axis=(0, 2, 3))
        return [(x, gx), (weight, gw), (bias, gb)]

    return Tensor._make(out_data, (x, weight, bias), backward)


# ----------------------------------------------------------------------
# Convolution via im2col
# ----------------------------------------------------------------------
def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None,
           stride: int = 1, padding: int = 0,
           workspace: Workspace | None = None) -> Tensor:
    """2-D convolution.  x: (N,C,H,W); weight: (O,C,kh,kw); bias: (O,)."""
    b = get_backend()
    out_ch, in_ch, kh, kw = weight.shape
    w_mat = weight.data.reshape(out_ch, -1)

    if not is_grad_enabled():
        n, c, h, w_in = x.shape
        out_h = (h + 2 * padding - kh) // stride + 1
        out_w = (w_in + 2 * padding - kw) // stride + 1
        ws = _ws(workspace)
        col_buf = None
        if ws is not None:
            col_buf = ws.buffer("im2col", (n, c * kh * kw, out_h * out_w), x.dtype)
        cols, out_h, out_w = b.conv_im2col(x.data, kh, kw, stride, padding,
                                           out=col_buf)
        out = b.einsum("ok,nkp->nop", w_mat, cols)
        if bias is not None:
            out += bias.data.reshape(1, -1, 1)
        return Tensor._noback(out.reshape(n, out_ch, out_h, out_w))

    cols, out_h, out_w = b.conv_im2col(x.data, kh, kw, stride, padding)
    out = b.einsum("ok,nkp->nop", w_mat, cols)
    if bias is not None:
        out = out + bias.data.reshape(1, -1, 1)
    out_data = out.reshape(x.shape[0], out_ch, out_h, out_w)
    x_shape = x.shape
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad):
        g = grad.reshape(x_shape[0], out_ch, -1)
        gw = b.einsum("nop,nkp->ok", g, cols).reshape(weight.shape)
        gcols = b.einsum("ok,nop->nkp", w_mat, g)
        gx = _col2im(gcols, x_shape, kh, kw, stride, padding)
        contributions = [(x, gx), (weight, gw)]
        if bias is not None:
            contributions.append((bias, g.sum(axis=(0, 2))))
        return contributions

    return Tensor._make(out_data, parents, backward)


def max_pool2d(x: Tensor, kernel: int, stride: int | None = None,
               workspace: Workspace | None = None) -> Tensor:
    """Max pooling over (N, C, H, W); kernel must evenly divide spatial dims
    when stride == kernel (the common CNN configuration we use)."""
    b = get_backend()
    stride = stride or kernel
    n, c, h, w = x.shape
    if not is_grad_enabled():
        out_h = (h - kernel) // stride + 1
        out_w = (w - kernel) // stride + 1
        ws = _ws(workspace)
        col_buf = None
        if ws is not None:
            col_buf = ws.buffer("pool_cols",
                                (n * c, kernel * kernel, out_h * out_w), x.dtype)
        cols, out_h, out_w = b.conv_im2col(
            x.data.reshape(n * c, 1, h, w), kernel, kernel, stride, 0,
            out=col_buf)
        out = cols.reshape(n * c, kernel * kernel, out_h * out_w).max(axis=1)
        return Tensor._noback(out.reshape(n, c, out_h, out_w))

    cols, out_h, out_w = b.conv_im2col(x.data.reshape(n * c, 1, h, w),
                                       kernel, kernel, stride, 0)
    cols = cols.reshape(n * c, kernel * kernel, out_h * out_w)
    arg = cols.argmax(axis=1)
    out_data = np.take_along_axis(cols, arg[:, None, :], axis=1)[:, 0, :]
    out_data = out_data.reshape(n, c, out_h, out_w)

    def backward(grad):
        gcols = np.zeros_like(cols)
        np.put_along_axis(gcols, arg[:, None, :],
                          grad.reshape(n * c, 1, out_h * out_w), axis=1)
        gx = _col2im(gcols, (n * c, 1, h, w), kernel, kernel, stride, 0)
        return [(x, gx.reshape(n, c, h, w))]

    return Tensor._make(out_data, (x,), backward)


def avg_pool2d(x: Tensor, kernel: int, stride: int | None = None,
               workspace: Workspace | None = None) -> Tensor:
    b = get_backend()
    stride = stride or kernel
    n, c, h, w = x.shape
    if not is_grad_enabled():
        out_h = (h - kernel) // stride + 1
        out_w = (w - kernel) // stride + 1
        ws = _ws(workspace)
        col_buf = None
        if ws is not None:
            col_buf = ws.buffer("pool_cols",
                                (n * c, kernel * kernel, out_h * out_w), x.dtype)
        cols, out_h, out_w = b.conv_im2col(
            x.data.reshape(n * c, 1, h, w), kernel, kernel, stride, 0,
            out=col_buf)
        out = cols.reshape(n * c, kernel * kernel, out_h * out_w).mean(axis=1)
        return Tensor._noback(out.reshape(n, c, out_h, out_w))

    cols, out_h, out_w = b.conv_im2col(x.data.reshape(n * c, 1, h, w),
                                       kernel, kernel, stride, 0)
    cols = cols.reshape(n * c, kernel * kernel, out_h * out_w)
    out_data = cols.mean(axis=1).reshape(n, c, out_h, out_w)
    k2 = kernel * kernel

    def backward(grad):
        g = grad.reshape(n * c, 1, out_h * out_w) / k2
        gcols = np.broadcast_to(g, (n * c, k2, out_h * out_w)).copy()
        gx = _col2im(gcols, (n * c, 1, h, w), kernel, kernel, stride, 0)
        return [(x, gx.reshape(n, c, h, w))]

    return Tensor._make(out_data, (x,), backward)


def _col2im(cols, x_shape, kh: int, kw: int, stride: int,
            pad: int) -> np.ndarray:
    """Scatter-add columns back onto the input; inverse of ``conv_im2col``."""
    n, c, h, w = x_shape
    padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    out_h = (h + 2 * pad - kh) // stride + 1
    out_w = (w + 2 * pad - kw) // stride + 1
    cols = cols.reshape(n, c, kh, kw, out_h, out_w)
    for i in range(kh):
        for j in range(kw):
            padded[:, :, i:i + stride * out_h:stride,
                   j:j + stride * out_w:stride] += cols[:, :, i, j]
    if pad:
        return padded[:, :, pad:-pad, pad:-pad]
    return padded


# ----------------------------------------------------------------------
# Misc
# ----------------------------------------------------------------------
def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           workspace: Workspace | None = None) -> Tensor:
    """Affine map: x @ W^T + b, with W stored (out_features, in_features)."""
    if not is_grad_enabled():
        b = get_backend()
        ws = _ws(workspace)
        out_buf = None
        if ws is not None and x.dtype == weight.dtype:
            out_buf = ws.buffer("linear_out",
                                x.shape[:-1] + (weight.shape[0],), x.dtype)
        out = b.linear(x.data, weight.data,
                       bias.data if bias is not None else None, out=out_buf)
        return Tensor._noback(out)
    out = x.matmul(weight.T)
    if bias is not None:
        out = out + bias
    return out


def one_hot(labels, num_classes: int, dtype=None):
    """One-hot encode integer labels as a plain array."""
    labels = np.asarray(labels, dtype=np.int64)
    out = np.zeros((labels.shape[0], num_classes),
                   dtype=dtype if dtype is not None else np.float32)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def flatten(x: Tensor, start_dim: int = 1) -> Tensor:
    shape = x.shape[:start_dim] + (-1,)
    return x.reshape(shape)
