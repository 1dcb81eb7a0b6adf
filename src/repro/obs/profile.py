"""Kernel profiling on the ``ArrayBackend`` seam.

:class:`ProfilingBackend` wraps an :class:`ArrayBackend` and records
per-kernel wall time and bytes moved for the kernels that dominate
transformer inference — matmul/einsum, the fused linear family,
softmax/log-softmax, layer-norm, and the im2col lowering.  Those nine are
all :class:`ArrayBackend` has, so the profiler overrides every one.

Metrics land in the global :class:`~repro.obs.metrics.MetricsRegistry`
as ``kernel.<op>_seconds{backend=<inner>}`` histograms and
``kernel.<op>_bytes_total{backend=<inner>}`` counters.  Bytes count the
kernel's array traffic (operands in + result out) — the roofline-style
companion to the timing.

Install it for a scope::

    from repro import nn, obs
    with nn.use_backend(obs.ProfilingBackend(nn.get_backend())):
        ...
    print(obs.get_registry().render_text())   # the kernel.* rows

Kernel metrics are per-process: only kernels run in the process that
installed the profiler are recorded, so fleet-wide kernel rollups require
the in-process transport.
"""

from __future__ import annotations

import time

import numpy as np

from ..nn.backend import ArrayBackend
from .metrics import get_registry

# The kernels worth timing, and ArrayBackend's whole public surface:
# everything else is plain numpy glue (reshapes, casts, elementwise ops
# already fused inside these, RNG).
PROFILED_KERNELS = ("matmul", "einsum", "linear", "linear_act",
                    "linear_q8", "softmax", "log_softmax", "layer_norm",
                    "conv_im2col")


def _nbytes(*arrays) -> int:
    total = 0
    for a in arrays:
        if isinstance(a, np.ndarray):
            total += a.nbytes
    return total


class ProfilingBackend(ArrayBackend):
    """An :class:`ArrayBackend` that times another backend's hot kernels.

    The timed kernels call ``self.inner``, never ``super()``: a kernel that
    composes another (``linear_act`` runs ``linear``) is then recorded
    once, as itself.
    """

    def __init__(self, inner: ArrayBackend | None = None):
        if inner is None:
            inner = ArrayBackend()
        if isinstance(inner, ProfilingBackend):
            raise TypeError("refusing to profile a ProfilingBackend")
        self.inner = inner
        self.name = f"profiled[{inner.name}]"
        registry = get_registry()
        self._seconds = {op: registry.histogram(f"kernel.{op}_seconds",
                                                backend=inner.name)
                         for op in PROFILED_KERNELS}
        self._bytes = {op: registry.counter(f"kernel.{op}_bytes_total",
                                            backend=inner.name)
                       for op in PROFILED_KERNELS}

    def _observe(self, op: str, t0: float, nbytes: int) -> None:
        self._seconds[op].observe(time.perf_counter() - t0)
        if nbytes:
            self._bytes[op].inc(nbytes)

    # -- timed kernels ----------------------------------------------------
    def matmul(self, a, b, out=None) -> np.ndarray:
        t0 = time.perf_counter()
        y = self.inner.matmul(a, b, out=out)
        self._observe("matmul", t0, _nbytes(a, b, y))
        return y

    def einsum(self, spec, *operands) -> np.ndarray:
        t0 = time.perf_counter()
        y = self.inner.einsum(spec, *operands)
        self._observe("einsum", t0, _nbytes(*operands, y))
        return y

    def linear(self, x, weight, bias=None, out=None) -> np.ndarray:
        t0 = time.perf_counter()
        y = self.inner.linear(x, weight, bias, out=out)
        self._observe("linear", t0, _nbytes(x, weight, bias, y))
        return y

    def linear_act(self, x, weight, bias=None, activation=None,
                   out=None) -> np.ndarray:
        t0 = time.perf_counter()
        y = self.inner.linear_act(x, weight, bias, activation, out=out)
        self._observe("linear_act", t0, _nbytes(x, weight, bias, y))
        return y

    def linear_q8(self, x, weight_q8, scale, bias=None, activation=None,
                  out=None) -> np.ndarray:
        t0 = time.perf_counter()
        y = self.inner.linear_q8(x, weight_q8, scale, bias, activation,
                                 out=out)
        self._observe("linear_q8", t0, _nbytes(x, weight_q8, scale, bias, y))
        return y

    def softmax(self, x, axis=-1, out=None) -> np.ndarray:
        t0 = time.perf_counter()
        y = self.inner.softmax(x, axis=axis, out=out)
        self._observe("softmax", t0, _nbytes(x, y))
        return y

    def log_softmax(self, x, axis=-1) -> np.ndarray:
        t0 = time.perf_counter()
        y = self.inner.log_softmax(x, axis=axis)
        self._observe("log_softmax", t0, _nbytes(x, y))
        return y

    def layer_norm(self, x, weight, bias, eps: float, out=None) -> np.ndarray:
        t0 = time.perf_counter()
        y = self.inner.layer_norm(x, weight, bias, eps, out=out)
        self._observe("layer_norm", t0, _nbytes(x, weight, bias, y))
        return y

    def conv_im2col(self, x, kh: int, kw: int, stride: int, pad: int,
                    out=None) -> tuple[np.ndarray, int, int]:
        t0 = time.perf_counter()
        cols, out_h, out_w = self.inner.conv_im2col(x, kh, kw, stride, pad,
                                                    out=out)
        self._observe("conv_im2col", t0, _nbytes(x, cols))
        return cols, out_h, out_w
