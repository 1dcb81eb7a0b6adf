"""Backend layer: selection, workspaces, fused-kernel correctness."""

import tracemalloc

import numpy as np
import pytest

from repro import nn
from repro.nn import backend, ops
from repro.nn.backend import (
    ACTIVATIONS,
    GELU_CHUNK,
    ArrayBackend,
    Workspace,
    apply_activation,
    get_backend,
    scratch,
    use_backend,
)


# ----------------------------------------------------------------------
# Selection
# ----------------------------------------------------------------------
def test_numpy_backend_is_default():
    assert type(get_backend()) is ArrayBackend
    assert get_backend().name == "numpy"


def test_use_backend_by_name_yields_the_reference_instance():
    """``use_backend("numpy")`` (the e2e benchmark's reference labels use
    it) is the default instance itself, even under another override."""
    reference = get_backend()
    with use_backend("numpy") as active:
        assert active is reference and get_backend() is reference
    with use_backend(ArrayBackend()):
        with use_backend("numpy") as active:
            assert active is reference


@pytest.mark.parametrize("name", ["profiled", "no-such-backend"])
def test_use_backend_rejects_every_other_name(name):
    default = get_backend()
    with pytest.raises(ValueError, match=name):
        with use_backend(name):
            pass
    assert get_backend() is default


def test_use_backend_scoped_override():
    class Tagged(ArrayBackend):
        name = "tagged"

    default = get_backend()
    with use_backend(Tagged()) as active:
        assert get_backend() is active
        assert get_backend().name == "tagged"
    assert get_backend() is default


def test_nested_overrides_unwind_innermost_first():
    default, outer, inner = get_backend(), ArrayBackend(), ArrayBackend()
    with use_backend(outer):
        with use_backend(inner):
            assert get_backend() is inner
        assert get_backend() is outer
    assert get_backend() is default


def test_use_backend_override_is_thread_local():
    """A worker thread's override is invisible to the caller's thread and
    the caller's to the worker (the server's threads share one process)."""
    import threading

    default, mine, theirs = get_backend(), ArrayBackend(), ArrayBackend()
    seen = {}
    entered, release = threading.Event(), threading.Event()

    def worker():
        seen["before"] = get_backend()
        with use_backend(theirs):
            seen["inside"] = get_backend()
            entered.set()
            release.wait(timeout=10)

    with use_backend(mine):
        t = threading.Thread(target=worker)
        t.start()
        assert entered.wait(timeout=10)
        assert get_backend() is mine
        release.set()
        t.join(timeout=10)
    assert not t.is_alive()
    assert seen == {"before": default, "inside": theirs}


def test_use_backend_restores_on_exception():
    default = get_backend()
    with pytest.raises(RuntimeError):
        with use_backend(ArrayBackend()):
            raise RuntimeError("boom")
    assert get_backend() is default


def test_ops_route_through_active_backend():
    """A custom backend's primitives are what nn ops actually execute."""
    class Counting(ArrayBackend):
        name = "counting"

        def __init__(self):
            self.linear_calls = 0

        def linear(self, x, weight, bias=None, out=None):
            self.linear_calls += 1
            return super().linear(x, weight, bias, out)

    counting = Counting()
    layer = nn.Linear(4, 3, rng=np.random.default_rng(0))
    x = nn.Tensor(np.random.default_rng(1).normal(size=(2, 4)).astype(np.float32))
    with use_backend(counting):
        with nn.no_grad():
            layer(x)
    assert counting.linear_calls == 1


# ----------------------------------------------------------------------
# Workspace
# ----------------------------------------------------------------------
def test_workspace_reuses_storage_for_same_tag():
    ws = Workspace()
    a = ws.buffer("x", (3, 4), np.float32)
    b = ws.buffer("x", (3, 4), np.float32)
    assert np.shares_memory(a, b)
    assert len(ws) == 1


def test_workspace_grow_and_slice_bounds_memory_across_shapes():
    """Different shapes under one tag share one flat allocation (the ragged
    final predict() batch must not double a model's scratch footprint)."""
    ws = Workspace()
    big = ws.buffer("x", (8, 4), np.float32)
    small = ws.buffer("x", (3, 4), np.float32)
    assert np.shares_memory(big, small)
    assert len(ws) == 1
    assert ws.nbytes() == 8 * 4 * 4          # max request, not the sum
    assert small.flags["C_CONTIGUOUS"]


def test_workspace_growing_a_tag_never_holds_both_storages():
    """A tag grown from 4 to 8 MiB lets go of the 4 MiB before it
    allocates the 8 (the two were held together, a 12 MiB peak)."""
    ws = Workspace()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        ws.buffer("x", (1 << 20,), np.float32)
        ws.buffer("x", (2 << 20,), np.float32)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert ws.nbytes() == 8 << 20
    assert peak <= (8 << 20) + (64 << 10), peak / 2**20


def test_workspace_distinguishes_tag_and_dtype():
    ws = Workspace()
    base = ws.buffer("x", (3, 4), np.float32)
    assert not np.shares_memory(ws.buffer("y", (3, 4), np.float32), base)
    assert not np.shares_memory(ws.buffer("x", (3, 4), np.float64), base)
    assert len(ws) == 3


def test_workspace_storage_is_thread_local():
    """Two threads asking for the same tag must never share scratch —
    concurrent inference on one model would otherwise corrupt outputs."""
    import threading

    ws = Workspace()
    mine = ws.buffer("x", (4,), np.float32)
    theirs = {}

    def worker():
        theirs["buf"] = ws.buffer("x", (4,), np.float32)
        theirs["buf"][:] = 7.0

    mine[:] = 1.0
    t = threading.Thread(target=worker)
    t.start()
    t.join()
    assert not np.shares_memory(mine, theirs["buf"])
    np.testing.assert_array_equal(mine, 1.0)


def test_workspace_clear_and_nbytes():
    ws = Workspace()
    ws.buffer("x", (8,), np.float32)
    assert ws.nbytes() == 32
    ws.clear()
    assert len(ws) == 0


def test_workspace_nbytes_totals_across_threads():
    """nbytes() is the whole server's scratch footprint; per_thread()
    breaks it down for telemetry."""
    import threading

    ws = Workspace()
    ws.buffer("x", (8,), np.float32)          # 32 bytes on this thread
    done = threading.Event()

    def worker():
        ws.buffer("x", (16,), np.float32)     # 64 bytes on the other thread
        done.set()

    t = threading.Thread(target=worker)
    t.start()
    t.join()
    assert done.is_set()
    assert ws.nbytes() == 32 + 64
    breakdown = ws.per_thread()
    assert sorted(breakdown.values()) == [32, 64]
    assert threading.get_ident() in breakdown
    ws.clear()                                # current thread only
    assert ws.nbytes() == 64


def test_scratch_without_workspace_allocates_fresh():
    a = scratch(None, "x", (2, 2), np.float32)
    b = scratch(None, "x", (2, 2), np.float32)
    assert a is not b
    assert a.shape == (2, 2)


def test_module_workspace_is_lazy_and_clearable():
    layer = nn.Linear(4, 3, rng=np.random.default_rng(0))
    assert "_workspace" not in layer.__dict__
    ws = layer.workspace
    assert layer.workspace is ws
    ws.buffer("t", (2,), np.float32)
    layer.clear_workspaces()
    assert len(ws) == 0


# ----------------------------------------------------------------------
# Fused kernels match their naive formulations
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def b() -> ArrayBackend:
    return ArrayBackend()


def test_no_grad_gelu_is_the_epilogue_and_matches_reference():
    """``ops.gelu`` without a graph runs the one GELU kernel,
    ``apply_activation("gelu")``, on a copy of its input."""
    x = np.random.default_rng(0).normal(size=(5, 7)).astype(np.float32)
    ref = 0.5 * x * (1.0 + np.tanh(np.sqrt(2 / np.pi) * (x + 0.044715 * x ** 3)))
    with nn.no_grad():
        out = ops.gelu(nn.Tensor(x)).data
    np.testing.assert_array_equal(out, apply_activation("gelu", x.copy()))
    np.testing.assert_allclose(out, ref, rtol=1e-6, atol=1e-7)


def test_gelu_epilogue_matches_the_tanh_form_without_warnings():
    """``apply_activation("gelu")`` is the sigmoid form x / (1 + exp(-2u))
    of the same function; far in the negative tail exp overflows to inf,
    which must come out as (minus) zero and raise no warning."""
    rng = np.random.default_rng(0)
    x = np.concatenate([rng.normal(size=64) * 3.0,
                        [-40.0, -12.0, -10.0, 0.0, 10.0, 40.0]]
                       ).astype(np.float32).reshape(10, 7)
    x64 = x.astype(np.float64)
    ref = 0.5 * x64 * (1.0 + np.tanh(np.sqrt(2 / np.pi)
                                      * (x64 + 0.044715 * x64 ** 3)))
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        out = apply_activation("gelu", x.copy())
        out_full = backend._gelu(x.copy(), np.empty_like(x))
    np.testing.assert_allclose(out, ref, rtol=1e-5, atol=1e-6)
    np.testing.assert_array_equal(out, out_full)


@pytest.mark.parametrize("shape", [
    (GELU_CHUNK - 3,),                 # below the chunk
    (GELU_CHUNK,),                     # exactly one chunk
    (4, GELU_CHUNK // 2),              # whole chunks
    (2 * GELU_CHUNK + 5,),             # a ragged tail
    (3, 65, 768),                      # a batch-3 serving-shape hidden layer
])
def test_gelu_without_scratch_equals_the_full_scratch_path(shape):
    x = (np.random.default_rng(1).normal(size=shape) * 4.0).astype(
        np.float32)
    full = backend._gelu(x.copy(), np.empty_like(x))
    chunked = apply_activation("gelu", x.copy())
    assert np.array_equal(chunked, full)


def test_gelu_on_a_strided_view_is_applied_in_place():
    x = np.random.default_rng(2).normal(size=(6, 8)).astype(np.float32)
    expected = apply_activation("gelu", x[:, ::2].copy())
    out = x.copy()
    apply_activation("gelu", out[:, ::2])
    assert np.array_equal(out[:, ::2], expected)
    assert np.array_equal(out[:, 1::2], x[:, 1::2])


@pytest.mark.parametrize("name, reference", [
    ("relu", lambda x: np.maximum(x, 0.0)),
    ("sigmoid", lambda x: 1.0 / (1.0 + np.exp(-x))),
    ("tanh", np.tanh),
])
def test_epilogue_activations_are_applied_in_place(name, reference):
    x = np.random.default_rng(7).normal(size=(3, 11)).astype(np.float32)
    buf = x.copy()
    out = apply_activation(name, buf)
    assert out is buf
    np.testing.assert_allclose(buf, reference(x), rtol=1e-6, atol=1e-7)


def test_unknown_epilogue_activation_raises():
    with pytest.raises(ValueError, match="unknown activation"):
        apply_activation("swish", np.zeros(3, dtype=np.float32))
    assert "swish" not in ACTIVATIONS


@pytest.mark.parametrize("activation", [None, *ACTIVATIONS])
def test_linear_act_is_linear_then_the_epilogue(b, activation):
    rng = np.random.default_rng(8)
    x = rng.normal(size=(2, 4, 6)).astype(np.float32)
    w = rng.normal(size=(5, 6)).astype(np.float32)
    bias = rng.normal(size=5).astype(np.float32)
    expected = b.linear(x, w, bias)
    if activation is not None:
        apply_activation(activation, expected)
    np.testing.assert_array_equal(
        b.linear_act(x, w, bias, activation=activation), expected)


def test_conv_lowering_einsum_is_a_plain_matmul(b, monkeypatch):
    """Every conv forward issues "ok,nkp->nop"; the default backend must
    not plan a contraction path for it on each call."""
    rng = np.random.default_rng(6)
    w = rng.normal(size=(4, 6)).astype(np.float32)
    cols = rng.normal(size=(2, 6, 5)).astype(np.float32)
    ref = np.einsum("ok,nkp->nop", w, cols)
    monkeypatch.setattr(np, "einsum", None)         # must not be reached
    np.testing.assert_allclose(b.einsum("ok,nkp->nop", w, cols), ref,
                               rtol=1e-5, atol=1e-6)


def test_softmax_kernel(b):
    x = np.random.default_rng(1).normal(size=(4, 9)).astype(np.float32)
    out = b.softmax(x, axis=-1)
    exp = np.exp(x - x.max(axis=-1, keepdims=True))
    np.testing.assert_allclose(out, exp / exp.sum(axis=-1, keepdims=True),
                               rtol=1e-6, atol=1e-7)
    np.testing.assert_allclose(out.sum(axis=-1), 1.0, rtol=1e-5)


def test_log_softmax_kernel(b):
    x = np.random.default_rng(2).normal(size=(4, 9)).astype(np.float32)
    np.testing.assert_allclose(np.exp(b.log_softmax(x, axis=-1)),
                               b.softmax(x, axis=-1), rtol=1e-5, atol=1e-6)


def test_layer_norm_kernel(b):
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 5, 8)).astype(np.float32)
    w = rng.normal(size=8).astype(np.float32)
    bias = rng.normal(size=8).astype(np.float32)
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    ref = (x - mu) / np.sqrt(var + 1e-5) * w + bias
    np.testing.assert_allclose(b.layer_norm(x, w, bias, 1e-5), ref,
                               rtol=1e-5, atol=1e-6)


def test_linear_kernel_and_out_buffer(b):
    rng = np.random.default_rng(4)
    x = rng.normal(size=(2, 5, 8)).astype(np.float32)
    w = rng.normal(size=(3, 8)).astype(np.float32)
    bias = rng.normal(size=3).astype(np.float32)
    ref = x @ w.T + bias
    np.testing.assert_allclose(b.linear(x, w, bias), ref, rtol=1e-5, atol=1e-6)
    buf = np.empty((2, 5, 3), dtype=np.float32)
    out = b.linear(x, w, bias, out=buf)
    assert out.base is buf or out is buf
    np.testing.assert_allclose(out, ref, rtol=1e-5, atol=1e-6)


def q8_operands(order):
    """A 3072x768 int8 weight (ViT-Base's fc1) and its operands: 10
    blocks of output rows, the last one short."""
    rng = np.random.default_rng(6)
    q8 = np.asarray(rng.integers(-127, 128, size=(3072, 768)), np.int8,
                    order=order)
    scale = rng.uniform(1e-3, 1e-2, size=3072).astype(np.float32)
    bias = rng.normal(size=3072).astype(np.float32)
    x = rng.normal(size=(2, 5, 768)).astype(np.float32)
    return x, q8, scale, bias


@pytest.mark.parametrize("order", ["C", "F"])
def test_linear_q8_equals_the_unblocked_product(b, order):
    x, q8, scale, bias = q8_operands(order)
    ref = (x.reshape(-1, 768) @ q8.astype(np.float32).T) * scale + bias
    ref = ref.reshape(2, 5, 3072)
    np.testing.assert_allclose(b.linear_q8(x, q8, scale, bias), ref,
                               rtol=1e-6)
    buf = np.empty((2, 5, 3072), dtype=np.float32)
    out = b.linear_q8(x, q8, scale, bias, activation="relu", out=buf)
    assert out.base is buf or out is buf
    np.testing.assert_allclose(out, np.maximum(ref, 0.0), rtol=1e-6)


def test_linear_q8_widens_one_block_at_a_time(b):
    """The fp32 transient of one call is one block of the weight, not a
    second, fp32 copy of all of it (9.4 MB here)."""
    x, q8, scale, bias = q8_operands("F")
    b.linear_q8(x, q8, scale, bias)              # warm numpy's own caches
    tracemalloc.start()
    try:
        y = b.linear_q8(x, q8, scale, bias)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= backend.Q8_BLOCK_BYTES + y.nbytes + (64 << 10)


def test_conv_im2col_roundtrip_shapes(b):
    x = np.random.default_rng(5).normal(size=(2, 3, 8, 8)).astype(np.float32)
    cols, oh, ow = b.conv_im2col(x, 3, 3, stride=1, pad=1)
    assert (oh, ow) == (8, 8)
    assert cols.shape == (2, 3 * 9, 64)
    buf = np.empty_like(cols)
    cols2, _, _ = b.conv_im2col(x, 3, 3, stride=1, pad=1, out=buf)
    np.testing.assert_array_equal(cols, cols2)
    assert cols2.base is buf or cols2 is buf


@pytest.mark.parametrize("k, stride, pad", [(3, 1, 1), (3, 2, 0),
                                            (2, 2, 0), (3, 2, 1)])
def test_col2im_is_the_adjoint_of_im2col(b, k, stride, pad):
    """The conv/pool backward scatter is the transpose of the forward
    gather: <im2col(x), y> == <x, col2im(y)> for any x and y."""
    rng = np.random.default_rng(9)
    x = rng.normal(size=(2, 3, 7, 7))
    cols, _, _ = b.conv_im2col(x, k, k, stride=stride, pad=pad)
    y = rng.normal(size=cols.shape)
    back = ops._col2im(y, x.shape, k, k, stride, pad)
    assert back.shape == x.shape
    np.testing.assert_allclose(np.vdot(cols, y), np.vdot(x, back),
                               rtol=1e-10)


def test_one_hot():
    out = ops.one_hot(np.array([0, 2, 1]), 3)
    np.testing.assert_array_equal(out, np.eye(3, dtype=np.float32)[[0, 2, 1]])
