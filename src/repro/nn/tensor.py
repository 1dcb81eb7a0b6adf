"""Reverse-mode automatic differentiation over numpy arrays.

This module is the substrate that replaces PyTorch in this reproduction.
It implements a :class:`Tensor` type carrying a value (`data`), an optional
gradient (`grad`), and a backward closure linking it to its parents in the
computation graph.  Calling :meth:`Tensor.backward` on a scalar output
performs a topological sort of the graph and accumulates gradients into
every tensor created with ``requires_grad=True``.

The design goals are correctness and clarity for the *differentiated* path
— every op has a hand-written backward rule checked against numerical
differentiation (see ``tests/nn/test_gradcheck.py``) — plus a **graph-free
fast path** for inference: whenever gradients are disabled (``no_grad()``
or ``inference_mode()``), ops return bare result tensors without allocating
backward closures or retaining parents, and the heavy functional ops in
:mod:`repro.nn.ops` route through the pluggable array backend
(:mod:`repro.nn.backend`) with pre-allocated workspaces.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

DEFAULT_DTYPE = np.float32


class _ModeState(threading.local):
    """Per-thread execution-mode flags (mirrors the thread-local backend
    override in :mod:`repro.nn.backend`): a thread serving inference must
    not flip another thread's training forwards onto the graph-free path."""

    def __init__(self):
        self.grad_enabled = True
        self.inference = False


_mode = _ModeState()


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph construction (like ``torch.no_grad``).

    Ops run the graph-free fast path but every output is freshly allocated,
    so results remain valid indefinitely (seed semantics).  To keep that
    guarantee it also *suspends* workspace reuse when entered inside an
    active ``inference_mode()``.  Both flags are thread-local.
    """
    prev_grad, prev_inf = _mode.grad_enabled, _mode.inference
    _mode.grad_enabled = False
    _mode.inference = False
    try:
        yield
    finally:
        _mode.grad_enabled, _mode.inference = prev_grad, prev_inf


@contextlib.contextmanager
def inference_mode():
    """``no_grad`` plus workspace reuse (like ``torch.inference_mode``).

    In addition to skipping graph construction, modules hand their
    shape-keyed workspaces to the ops layer, so scratch buffers *and op
    outputs* may alias pre-allocated storage that is overwritten by the
    module's next forward call.  Copy anything you keep across calls
    (:func:`repro.core.predict` does).  Nesting is exception-safe: both
    thread-local flags are restored even if the body raises.
    """
    prev_grad, prev_inf = _mode.grad_enabled, _mode.inference
    _mode.grad_enabled = False
    _mode.inference = True
    try:
        yield
    finally:
        _mode.grad_enabled, _mode.inference = prev_grad, prev_inf


def is_grad_enabled() -> bool:
    return _mode.grad_enabled


def is_inference() -> bool:
    return _mode.inference


def _as_array(value) -> np.ndarray:
    if isinstance(value, Tensor):
        raise TypeError("expected raw data, got Tensor")
    arr = np.asarray(value)
    if arr.dtype == np.float64 or arr.dtype.kind not in {"f", "i", "u", "b"}:
        arr = arr.astype(DEFAULT_DTYPE)
    return arr


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, inverting numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over dimensions that were broadcast from size 1.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed array node in a dynamically-built autograd graph."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    __array_priority__ = 100  # numpy defers binary ops to Tensor

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and _mode.grad_enabled
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{grad_flag})"

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    @staticmethod
    def _noback(data) -> "Tensor":
        """Wrap raw data with no graph linkage (the inference fast path).

        Unlike the public constructor there is no dtype convenience cast,
        and ``data`` may be a view of (or alias into) another array — under
        ``inference_mode()`` it may even alias a module workspace buffer.
        """
        out = Tensor.__new__(Tensor)
        out.data = data if isinstance(data, np.ndarray) else np.asarray(data)
        out.grad = None
        out.requires_grad = False
        out._backward = None
        out._parents = ()
        return out

    @staticmethod
    def _make(data: np.ndarray, parents: Sequence["Tensor"],
              backward: Callable[[np.ndarray], None]) -> "Tensor":
        """Create a graph node whose gradient flows to ``parents``.

        Unlike the public constructor, op outputs keep their dtype exactly
        (no float64 -> float32 convenience cast), so float64 graphs — used
        by gradient checking — stay float64 end to end.
        """
        requires = _mode.grad_enabled and any(p.requires_grad for p in parents)
        out = Tensor.__new__(Tensor)
        out.data = np.asarray(data)
        out.grad = None
        out.requires_grad = requires
        if requires:
            out._parents = tuple(parents)
            out._backward = backward
        else:
            out._parents = ()
            out._backward = None
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = grad.astype(self.data.dtype, copy=True)
        else:
            self.grad = self.grad + grad

    def backward(self) -> None:
        """Backpropagate from this scalar (a loss) through the graph."""
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if self.data.size != 1:
            raise RuntimeError("backward() requires a scalar output")
        grad = np.ones_like(self.data)

        # Topological order via iterative DFS (avoids recursion limits on
        # deep transformer graphs).
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited and parent.requires_grad:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(topo):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node._backward is None:
                # Leaf tensor: accumulate into .grad for the optimizer.
                node._accumulate(node_grad)
                continue
            for parent, pgrad in node._backward(node_grad):
                if not parent.requires_grad:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pgrad
                else:
                    grads[key] = pgrad

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data + other.data
        if not _mode.grad_enabled:
            return Tensor._noback(out_data)

        def backward(grad):
            return [(self, _unbroadcast(grad, self.shape)),
                    (other, _unbroadcast(grad, other.shape))]

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data - other.data
        if not _mode.grad_enabled:
            return Tensor._noback(out_data)

        def backward(grad):
            return [(self, _unbroadcast(grad, self.shape)),
                    (other, _unbroadcast(-grad, other.shape))]

        return Tensor._make(out_data, (self, other), backward)

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other).__sub__(self)

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data * other.data
        if not _mode.grad_enabled:
            return Tensor._noback(out_data)

        def backward(grad):
            return [(self, _unbroadcast(grad * other.data, self.shape)),
                    (other, _unbroadcast(grad * self.data, other.shape))]

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data / other.data
        if not _mode.grad_enabled:
            return Tensor._noback(out_data)

        def backward(grad):
            return [(self, _unbroadcast(grad / other.data, self.shape)),
                    (other, _unbroadcast(-grad * self.data / (other.data ** 2), other.shape))]

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        out_data = -self.data
        if not _mode.grad_enabled:
            return Tensor._noback(out_data)

        def backward(grad):
            return [(self, -grad)]

        return Tensor._make(out_data, (self,), backward)

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp/log")
        out_data = self.data ** exponent
        if not _mode.grad_enabled:
            return Tensor._noback(out_data)

        def backward(grad):
            return [(self, grad * exponent * self.data ** (exponent - 1))]

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Comparison (no gradient; returns plain numpy bool arrays)
    # ------------------------------------------------------------------
    def __gt__(self, other):
        return self.data > (other.data if isinstance(other, Tensor) else other)

    def __lt__(self, other):
        return self.data < (other.data if isinstance(other, Tensor) else other)

    def __ge__(self, other):
        return self.data >= (other.data if isinstance(other, Tensor) else other)

    def __le__(self, other):
        return self.data <= (other.data if isinstance(other, Tensor) else other)

    # ------------------------------------------------------------------
    # Transcendental / unary ops
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)
        if not _mode.grad_enabled:
            return Tensor._noback(out_data)

        def backward(grad):
            return [(self, grad * out_data)]

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)
        if not _mode.grad_enabled:
            return Tensor._noback(out_data)

        def backward(grad):
            return [(self, grad / self.data)]

        return Tensor._make(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)
        if not _mode.grad_enabled:
            return Tensor._noback(out_data)

        def backward(grad):
            return [(self, grad * 0.5 / out_data)]

        return Tensor._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)
        if not _mode.grad_enabled:
            return Tensor._noback(out_data)

        def backward(grad):
            return [(self, grad * (1.0 - out_data ** 2))]

        return Tensor._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        if not _mode.grad_enabled:
            return Tensor._noback(np.maximum(self.data, 0.0))
        mask = self.data > 0
        out_data = self.data * mask

        def backward(grad):
            return [(self, grad * mask)]

        return Tensor._make(out_data, (self,), backward)

    def abs(self) -> "Tensor":
        if not _mode.grad_enabled:
            return Tensor._noback(np.abs(self.data))
        sign = np.sign(self.data)
        out_data = np.abs(self.data)

        def backward(grad):
            return [(self, grad * sign)]

        return Tensor._make(out_data, (self,), backward)

    def clip(self, lo: float, hi: float) -> "Tensor":
        out_data = np.clip(self.data, lo, hi)
        if not _mode.grad_enabled:
            return Tensor._noback(out_data)
        mask = (self.data >= lo) & (self.data <= hi)

        def backward(grad):
            return [(self, grad * mask)]

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        if not _mode.grad_enabled:
            return Tensor._noback(out_data)

        def backward(grad):
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return [(self, np.broadcast_to(g, self.shape).copy())]

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if not _mode.grad_enabled:
            return Tensor._noback(self.data.mean(axis=axis, keepdims=keepdims))
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        mu = self.mean(axis=axis, keepdims=True)
        centered = self - mu
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)
        if not _mode.grad_enabled:
            return Tensor._noback(out_data)

        def backward(grad):
            g = grad
            out = out_data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
                out = np.expand_dims(out_data, axis)
            mask = (self.data == out)
            # Split gradient between ties (matches numerical gradient).
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            return [(self, mask * g / counts)]

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        if not _mode.grad_enabled:
            return Tensor._noback(out_data)
        in_shape = self.shape

        def backward(grad):
            return [(self, grad.reshape(in_shape))]

        return Tensor._make(out_data, (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        out_data = self.data.transpose(axes)
        if not _mode.grad_enabled:
            return Tensor._noback(out_data)
        inverse = np.argsort(axes)

        def backward(grad):
            return [(self, grad.transpose(inverse))]

        return Tensor._make(out_data, (self,), backward)

    def swapaxes(self, a: int, b: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(tuple(axes))

    def __getitem__(self, key) -> "Tensor":
        if not _mode.grad_enabled:
            # Views are fine graph-free: nothing mutates op outputs in place.
            return Tensor._noback(self.data[key])
        out_data = self.data[key]
        in_shape = self.shape
        dtype = self.data.dtype

        def backward(grad):
            full = np.zeros(in_shape, dtype=dtype)
            np.add.at(full, key, grad)
            return [(self, full)]

        return Tensor._make(np.array(out_data, copy=True), (self,), backward)

    def pad(self, pad_width) -> "Tensor":
        out_data = np.pad(self.data, pad_width)
        if not _mode.grad_enabled:
            return Tensor._noback(out_data)
        slices = tuple(slice(p[0], p[0] + s) for p, s in zip(pad_width, self.shape))

        def backward(grad):
            return [(self, grad[slices])]

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Linear algebra
    # ------------------------------------------------------------------
    def matmul(self, other: "Tensor") -> "Tensor":
        other = as_tensor(other)
        out_data = self.data @ other.data
        if not _mode.grad_enabled:
            return Tensor._noback(out_data)
        a, b = self, other

        def backward(grad):
            a_data, b_data = a.data, b.data
            if a_data.ndim == 1 and b_data.ndim == 1:
                ga = grad * b_data
                gb = grad * a_data
            elif a_data.ndim == 1:
                # (k,) @ (..., k, n) -> (..., n)
                ga = _unbroadcast((np.expand_dims(grad, -2) @ np.swapaxes(b_data, -1, -2)).reshape(
                    grad.shape[:-1] + (a_data.shape[0],)), a.shape)
                gb = _unbroadcast(np.expand_dims(a_data, -1) @ np.expand_dims(grad, -2), b.shape)
            elif b_data.ndim == 1:
                # (..., m, k) @ (k,) -> (..., m)
                ga = _unbroadcast(np.expand_dims(grad, -1) @ np.expand_dims(b_data, 0), a.shape)
                gb = _unbroadcast((np.swapaxes(a_data, -1, -2) @ np.expand_dims(grad, -1))[..., 0],
                                  b.shape)
            else:
                ga = _unbroadcast(grad @ np.swapaxes(b_data, -1, -2), a.shape)
                gb = _unbroadcast(np.swapaxes(a_data, -1, -2) @ grad, b.shape)
            return [(a, ga), (b, gb)]

        return Tensor._make(out_data, (self, other), backward)

    def __matmul__(self, other) -> "Tensor":
        return self.matmul(other)


def as_tensor(value) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (zero-copy for Tensors)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    if not _mode.grad_enabled:
        return Tensor._noback(out_data)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad):
        contributions = []
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            index = [slice(None)] * grad.ndim
            index[axis] = slice(start, stop)
            contributions.append((t, grad[tuple(index)]))
        return contributions

    return Tensor._make(out_data, tuple(tensors), backward)


def stack(tensors: Iterable[Tensor]) -> Tensor:
    """Stack tensors along a new leading axis with gradient routing."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors])
    if not _mode.grad_enabled:
        return Tensor._noback(out_data)

    def backward(grad):
        return [(t, g) for t, g in zip(tensors, grad)]

    return Tensor._make(out_data, tuple(tensors), backward)


def where(condition: np.ndarray, x: Tensor, y: Tensor) -> Tensor:
    """Differentiable selection: gradient flows through the chosen branch."""
    x, y = as_tensor(x), as_tensor(y)
    cond = condition.data if isinstance(condition, Tensor) else np.asarray(condition)
    out_data = np.where(cond, x.data, y.data)
    if not _mode.grad_enabled:
        return Tensor._noback(out_data)

    def backward(grad):
        return [(x, _unbroadcast(grad * cond, x.shape)),
                (y, _unbroadcast(grad * (~cond.astype(bool)), y.shape))]

    return Tensor._make(out_data, (x, y), backward)



def zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape, dtype=DEFAULT_DTYPE))
