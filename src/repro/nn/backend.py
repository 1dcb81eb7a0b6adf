"""Array-ops backend layer: the seam between autograd and raw array math.

Every numerical primitive the framework needs — matmuls, einsums, the
im2col convolution lowering, reductions, elementwise transcendentals, RNG —
is routed through an :class:`ArrayBackend` instance instead of calling
``numpy`` directly from op code.  This mirrors the thin-wrapper design of
the original ``autograd`` package (``autograd.numpy`` re-exports the array
namespace and the differentiation machinery never touches it directly): the
differentiation rules in :mod:`repro.nn.ops` compose *named primitives*, so
a subclass that overrides some of them (:class:`repro.obs.ProfilingBackend`
times the hot ones) sees every call the ops make.

Selection::

    from repro import nn, obs
    nn.get_backend()                   # the reference instance by default
    with nn.use_backend(obs.ProfilingBackend()):   # scoped override
        ...

``use_backend("numpy")`` names the reference instance; no other name
exists.

Workspaces
----------
:class:`Workspace` is a tag-keyed cache of pre-allocated scratch buffers
(im2col columns, a ``Linear``'s output, the ViT schedule's arena).  Modules
own one workspace each; ops accept it optionally and only *reuse* buffers
while :func:`repro.nn.tensor.is_inference` is true.  Invariants:

* a buffer is keyed by ``(tag, dtype)`` per thread — same key, same
  storage, grown to the largest shape asked for;
* a buffer's contents are only valid until the owning module's next
  forward call: under ``inference_mode()`` op outputs may alias workspace
  storage, so callers must copy anything they keep across calls
  (:func:`repro.core.predict` does);
* under plain ``no_grad()`` (without ``inference_mode()``) every op output
  is freshly allocated, so seed semantics are unchanged.

The ViT's graph-free schedule (:mod:`repro.models.vit`) uses one workspace
as an **arena** for the whole model — blocks run in sequence, so they
share its tags — and hands none of it out: its results are fresh arrays.

Weight layout
-------------
``linear`` / ``linear_act`` / ``linear_q8`` take the weight ``(out, in)``
in **any** layout and compute ``x @ weight.T``.  ``Linear`` holds its
weight K-major (F-contiguous) once it serves, which makes that the NN GEMM
here without a copy; a C-ordered weight is the NT GEMM.  Kernels must
therefore not assume contiguity of ``weight``, nor of a row slice of it.

The reference kernels worth knowing the cost of: ``layer_norm`` is four
full-size passes (centre, scale, weight, bias) around two row reductions;
``apply_activation("gelu")`` is seven in-place passes, chunk by chunk;
``einsum("ok,nkp->nop")``, the conv lowering, is a broadcast ``matmul``.
"""

from __future__ import annotations

import contextlib
import math
import threading

import numpy as np

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)

# Elements per pass of apply_activation("gelu") when the caller passes no
# scratch: the one temporary it allocates is at most this long.
GELU_CHUNK = 1 << 16


class Workspace:
    """Cache of pre-allocated scratch storage for the inference fast path.

    Storage is **per thread** (concurrent inference on a shared model must
    not write into the same scratch — the mode flags in
    :mod:`repro.nn.tensor` are thread-local for the same reason) and keyed
    by ``(tag, dtype)``: each tag owns one flat grow-on-demand allocation,
    and :meth:`buffer` returns a contiguous view of the requested shape.
    Memory per tag is therefore bounded by the largest request seen, no
    matter how many distinct (e.g. ragged-final-batch) shapes pass through.

    Per-thread stores are kept in one id-keyed dict (not a
    ``threading.local``) so :meth:`nbytes` / :meth:`per_thread` can report
    the *whole* scratch footprint of a long-lived server, not just the
    calling thread's slice.
    """

    __slots__ = ("_stores", "_lock")

    def __init__(self):
        # thread ident -> {(tag, dtype): flat array}.  Single dict-key
        # reads/writes are GIL-atomic, so the hot buffer() path needs no
        # lock; the lock only serializes snapshots and first-touch setup.
        self._stores: dict[int, dict[tuple, np.ndarray]] = {}
        self._lock = threading.Lock()

    def _storage(self) -> dict[tuple, np.ndarray]:
        ident = threading.get_ident()
        store = self._stores.get(ident)
        if store is None:
            with self._lock:
                store = self._stores.setdefault(ident, {})
        return store

    def buffer(self, tag: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        """A contiguous scratch view of ``shape``; contents unspecified.

        Views handed out for the same tag share (and overwrite) the same
        storage — valid only until the owner's next request for that tag.
        """
        dt = np.dtype(dtype)
        key = (tag, dt.str)
        need = 1
        for dim in shape:
            need *= int(dim)
        store = self._storage()
        flat = store.get(key)
        if flat is None or flat.size < need:
            flat = np.empty(need, dtype=dt)
            store[key] = flat
        return flat[:need].reshape(shape)

    def clear(self) -> None:
        """Release this thread's scratch storage."""
        with self._lock:
            self._stores.pop(threading.get_ident(), None)

    def clear_all(self) -> None:
        """Release every thread's scratch storage."""
        with self._lock:
            self._stores.clear()

    def nbytes(self) -> int:
        """Total scratch bytes held across *all* threads that ever used
        this workspace (dead threads' stores stay counted until cleared —
        they still hold the memory)."""
        with self._lock:
            return sum(b.nbytes for store in self._stores.values()
                       for b in store.values())

    def per_thread(self) -> dict[int, int]:
        """Scratch bytes per thread ident — the telemetry breakdown."""
        with self._lock:
            return {ident: sum(b.nbytes for b in store.values())
                    for ident, store in self._stores.items()}

    def __len__(self) -> int:
        return len(self._storage())


def scratch(workspace: Workspace | None, tag: str, shape, dtype) -> np.ndarray:
    """A buffer from ``workspace`` when caching is active, else a fresh array.

    Ops call this for their fast-path outputs/scratch; passing ``None`` (or
    running outside ``inference_mode()``, which is how modules decide whether
    to hand their workspace down) degrades to plain allocation.
    """
    if workspace is None:
        return np.empty(shape, dtype=dtype)
    return workspace.buffer(tag, shape, dtype)


def _gelu(buf: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """GELU of ``buf`` in place, with ``tmp`` as same-shape scratch."""
    # 0.5 x (1 + tanh u) == x / (1 + exp(-2u)) with
    # u = sqrt(2/pi) x (1 + 0.044715 x^2): seven in-place passes
    # with the constants folded, against nine for the tanh form.
    np.multiply(buf, buf, out=tmp)
    tmp *= -2.0 * _SQRT_2_OVER_PI * 0.044715
    tmp -= 2.0 * _SQRT_2_OVER_PI
    tmp *= buf
    # exp overflows to inf below x ~ -10, where x / inf = -0.0 is
    # the right limit; only the warning is unwanted.
    with np.errstate(over="ignore"):
        np.exp(tmp, out=tmp)
    tmp += 1.0
    buf /= tmp
    return buf


class ArrayBackend:
    """The array-primitive surface and its one implementation: numpy with
    the fused kernels below.

    Subclasses override a subset and inherit the rest.  Methods accept and
    return plain ``np.ndarray`` — Tensors never cross this boundary.
    """

    name = "numpy"

    # -- creation / casting ------------------------------------------------
    def asarray(self, value, dtype=None) -> np.ndarray:
        return np.asarray(value, dtype=dtype)

    def empty(self, shape, dtype=np.float32) -> np.ndarray:
        return np.empty(shape, dtype=dtype)

    def zeros(self, shape, dtype=np.float32) -> np.ndarray:
        return np.zeros(shape, dtype=dtype)

    def ones(self, shape, dtype=np.float32) -> np.ndarray:
        return np.ones(shape, dtype=dtype)

    def zeros_like(self, x) -> np.ndarray:
        return np.zeros_like(x)

    def ones_like(self, x) -> np.ndarray:
        return np.ones_like(x)

    def arange(self, n, dtype=None) -> np.ndarray:
        return np.arange(n, dtype=dtype)

    def rng(self, seed=None) -> np.random.Generator:
        return np.random.default_rng(seed)

    # -- linear algebra ----------------------------------------------------
    def matmul(self, a, b, out=None) -> np.ndarray:
        return np.matmul(a, b, out=out)

    def einsum(self, spec, *operands) -> np.ndarray:
        # The convolution lowering "ok,nkp->nop" is a plain broadcast
        # matmul; np.einsum spends more time planning a contraction path
        # per call than the tiny GEMM itself takes.
        if spec == "ok,nkp->nop" and len(operands) == 2:
            return np.matmul(operands[0], operands[1])
        return np.einsum(spec, *operands, optimize=True)

    def linear(self, x, weight, bias=None, out=None) -> np.ndarray:
        """Affine map ``x @ weight.T + bias`` collapsed to one GEMM.

        ``x`` may have arbitrary leading dimensions; ``weight`` is stored
        ``(out_features, in_features)`` as in ``torch.nn.Linear``.
        """
        lead = x.shape[:-1]
        x2 = np.ascontiguousarray(x.reshape(-1, x.shape[-1]))
        out2 = out.reshape(-1, weight.shape[0]) if out is not None else None
        y = np.matmul(x2, weight.T, out=out2)
        if bias is not None:
            y += bias
        return y.reshape(lead + (weight.shape[0],))

    # Activations linear_act/linear_q8 may fuse as a post-GEMM epilogue.
    ACTIVATIONS = ("gelu", "relu", "sigmoid", "tanh")

    def apply_activation(self, name: str, buf, tmp=None) -> np.ndarray:
        """Apply a named activation to ``buf`` **in place**.

        ``tmp`` is optional same-shape scratch; only ``gelu`` needs it
        (its exponent must be built while ``buf`` still holds x).  Without
        it, ``gelu`` walks a C-contiguous ``buf`` :data:`GELU_CHUNK`
        elements at a time through one scratch of at most that length.
        """
        if name == "relu":
            return np.maximum(buf, 0.0, out=buf)
        if name == "sigmoid":
            return self.sigmoid(buf, out=buf)
        if name == "tanh":
            return np.tanh(buf, out=buf)
        if name == "gelu":
            if tmp is not None or not buf.flags.c_contiguous:
                return _gelu(buf, np.empty_like(buf) if tmp is None else tmp)
            # Elementwise, so a pass over GELU_CHUNK elements at a time
            # gives the same bits with a bounded scratch.
            flat = buf.reshape(-1)
            tmp = np.empty(min(flat.size, GELU_CHUNK), dtype=buf.dtype)
            for start in range(0, flat.size, GELU_CHUNK):
                part = flat[start:start + GELU_CHUNK]
                _gelu(part, tmp[:part.size])
            return buf
        raise ValueError(f"unknown activation {name!r}; "
                         f"supported: {list(self.ACTIVATIONS)}")

    def linear_act(self, x, weight, bias=None, activation=None,
                   out=None) -> np.ndarray:
        """:meth:`linear` with an optional fused activation epilogue.

        The two are chained; the epilogue runs in place on the GEMM's
        output.
        """
        y = self.linear(x, weight, bias, out=out)
        if activation is not None:
            self.apply_activation(activation, y)
        return y

    def linear_q8(self, x, weight_q8, scale, bias=None, activation=None,
                  out=None) -> np.ndarray:
        """int8-weight affine map with fp32 accumulation.

        ``weight_q8`` is ``(out_features, in_features)`` int8 and ``scale``
        the per-output-channel dequantization scale (see
        :mod:`repro.nn.quantize`).  Because the scale is per *output*
        channel it folds into the GEMM result's columns
        (``(x @ q.T) * scale == x @ (q * scale[:, None]).T``), so the
        weight itself only needs a dtype widen, never a scaled copy.
        """
        lead = x.shape[:-1]
        n_out = weight_q8.shape[0]
        x2 = np.ascontiguousarray(x.reshape(-1, x.shape[-1]))
        out2 = out.reshape(-1, n_out) if out is not None else None
        y = np.matmul(x2, weight_q8.astype(np.float32).T, out=out2)
        y *= scale
        if bias is not None:
            y += bias
        if activation is not None:
            self.apply_activation(activation, y)
        return y.reshape(lead + (n_out,))

    # -- elementwise -------------------------------------------------------
    def exp(self, x, out=None) -> np.ndarray:
        return np.exp(x, out=out)

    def log(self, x, out=None) -> np.ndarray:
        return np.log(x, out=out)

    def sqrt(self, x, out=None) -> np.ndarray:
        return np.sqrt(x, out=out)

    def tanh(self, x, out=None) -> np.ndarray:
        return np.tanh(x, out=out)

    def sigmoid(self, x, out=None) -> np.ndarray:
        out = np.negative(x, out=out)
        np.exp(out, out=out)
        out += 1.0
        return np.divide(1.0, out, out=out)

    def relu(self, x, out=None) -> np.ndarray:
        return np.maximum(x, 0.0, out=out)

    def abs(self, x) -> np.ndarray:
        return np.abs(x)

    def sign(self, x) -> np.ndarray:
        return np.sign(x)

    def clip(self, x, lo, hi) -> np.ndarray:
        return np.clip(x, lo, hi)

    def maximum(self, a, b) -> np.ndarray:
        return np.maximum(a, b)

    def where(self, cond, a, b) -> np.ndarray:
        return np.where(cond, a, b)

    def gelu(self, x, out=None) -> np.ndarray:
        """Tanh-approximation GELU, fused and cube-by-multiplication.

        ``x ** 3`` hits numpy's generic float pow (~70x slower than two
        multiplies for float32), so the cube is computed as ``x*x*x``.
        """
        buf = np.multiply(x, x, out=out)
        buf *= x
        buf *= 0.044715
        buf += x
        buf *= _SQRT_2_OVER_PI
        np.tanh(buf, out=buf)
        buf += 1.0
        buf *= x
        buf *= 0.5
        return buf

    # -- reductions --------------------------------------------------------
    def sum(self, x, axis=None, keepdims=False) -> np.ndarray:
        return x.sum(axis=axis, keepdims=keepdims)

    def mean(self, x, axis=None, keepdims=False) -> np.ndarray:
        return x.mean(axis=axis, keepdims=keepdims)

    def max(self, x, axis=None, keepdims=False) -> np.ndarray:
        return x.max(axis=axis, keepdims=keepdims)

    def argmax(self, x, axis=None) -> np.ndarray:
        return x.argmax(axis=axis)

    def prod(self, values) -> float:
        return float(np.prod(values))

    # -- shape / indexing --------------------------------------------------
    def pad(self, x, pad_width) -> np.ndarray:
        return np.pad(x, pad_width)

    def concatenate(self, arrays, axis=0) -> np.ndarray:
        return np.concatenate(arrays, axis=axis)

    def stack(self, arrays, axis=0) -> np.ndarray:
        return np.stack(arrays, axis=axis)

    def split(self, x, sections, axis=0) -> list[np.ndarray]:
        return np.split(x, sections, axis=axis)

    def squeeze(self, x, axis=None) -> np.ndarray:
        return np.squeeze(x, axis=axis)

    def expand_dims(self, x, axis) -> np.ndarray:
        return np.expand_dims(x, axis)

    def broadcast_to(self, x, shape) -> np.ndarray:
        return np.broadcast_to(x, shape)

    def ascontiguous(self, x) -> np.ndarray:
        return np.ascontiguousarray(x)

    def take_along_axis(self, x, indices, axis) -> np.ndarray:
        return np.take_along_axis(x, indices, axis=axis)

    def put_along_axis(self, x, indices, values, axis) -> None:
        np.put_along_axis(x, indices, values, axis=axis)

    def index_add(self, target, key, values) -> None:
        """Scatter-add ``values`` into ``target[key]`` (duplicate-safe)."""
        np.add.at(target, key, values)

    def one_hot(self, labels, num_classes: int, dtype=np.float32) -> np.ndarray:
        labels = np.asarray(labels, dtype=np.int64)
        out = np.zeros((labels.shape[0], num_classes), dtype=dtype)
        out[np.arange(labels.shape[0]), labels] = 1.0
        return out

    # -- fused normalization / softmax kernels -----------------------------
    def softmax(self, x, axis=-1, out=None) -> np.ndarray:
        shifted = np.subtract(x, x.max(axis=axis, keepdims=True), out=out)
        np.exp(shifted, out=shifted)
        shifted /= shifted.sum(axis=axis, keepdims=True)
        return shifted

    def log_softmax(self, x, axis=-1, out=None) -> np.ndarray:
        shifted = np.subtract(x, x.max(axis=axis, keepdims=True), out=out)
        log_sum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        shifted -= log_sum
        return shifted

    def layer_norm(self, x, weight, bias, eps: float, out=None) -> np.ndarray:
        """Four full-size passes (centre, scale, weight, bias); the two
        row reductions allocate nothing the size of ``x``."""
        inv_d = 1.0 / x.shape[-1]
        mu = np.add.reduce(x, axis=-1, keepdims=True)
        mu *= inv_d
        centered = np.subtract(x, mu, out=out)
        var = np.einsum("...d,...d->...", centered, centered)[..., None]
        var *= inv_d
        var += eps
        np.sqrt(var, out=var)
        np.divide(1.0, var, out=var)
        centered *= var
        centered *= weight
        centered += bias
        return centered

    def batch_norm_stats(self, x, axes) -> tuple[np.ndarray, np.ndarray]:
        return x.mean(axis=axes, keepdims=True), x.var(axis=axes, keepdims=True)

    # -- convolution lowering ----------------------------------------------
    def conv_im2col(self, x, kh: int, kw: int, stride: int, pad: int,
                    out=None) -> tuple[np.ndarray, int, int]:
        """Lower (N, C, H, W) to receptive-field columns.

        Returns ``(cols, out_h, out_w)`` with ``cols`` of shape
        ``(N, C*kh*kw, out_h*out_w)``.  ``out`` (from a workspace) receives
        the gathered columns to avoid reallocating per call.
        """
        n, c, h, w = x.shape
        if pad:
            x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        out_h = (h + 2 * pad - kh) // stride + 1
        out_w = (w + 2 * pad - kw) // stride + 1
        s = x.strides
        windows = np.lib.stride_tricks.as_strided(
            x,
            shape=(n, c, out_h, out_w, kh, kw),
            strides=(s[0], s[1], s[2] * stride, s[3] * stride, s[2], s[3]),
            writeable=False,
        )
        transposed = windows.transpose(0, 1, 4, 5, 2, 3)
        shape = (n, c * kh * kw, out_h * out_w)
        if out is not None:
            cols = out
            np.copyto(cols.reshape(n, c, kh, kw, out_h, out_w), transposed)
        else:
            cols = np.ascontiguousarray(transposed).reshape(shape)
        return cols.reshape(shape), out_h, out_w

    def col2im(self, cols, x_shape, kh: int, kw: int, stride: int,
               pad: int) -> np.ndarray:
        """Scatter-add columns back onto the input; inverse of conv_im2col."""
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


_reference = ArrayBackend()
_state = threading.local()


def get_backend() -> ArrayBackend:
    """The active backend: innermost :func:`use_backend` override, else the
    reference instance."""
    override = getattr(_state, "stack", None)
    if override:
        return override[-1]
    return _reference


@contextlib.contextmanager
def use_backend(backend: ArrayBackend | str):
    """Scoped (and thread-local) backend override.

    The string ``"numpy"`` names the reference instance; any other string
    is a ``ValueError``.
    """
    if isinstance(backend, str):
        if backend != _reference.name:
            raise ValueError(f"unknown backend {backend!r}; the only named "
                             f"backend is {_reference.name!r}")
        backend = _reference
    stack = getattr(_state, "stack", None)
    if stack is None:
        stack = _state.stack = []
    stack.append(backend)
    try:
        yield backend
    finally:
        stack.pop()
