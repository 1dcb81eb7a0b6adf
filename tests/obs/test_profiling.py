"""ProfilingBackend tests: kernel timing, byte accounting, the override
surface."""

import inspect

import numpy as np
import pytest

from repro import nn
from repro.nn import ops
from repro.obs import PROFILED_KERNELS, ProfilingBackend, get_registry
from repro.nn.backend import ArrayBackend


def kernel_count(op: str, backend: str = "numpy") -> int:
    return get_registry().histogram(f"kernel.{op}_seconds",
                                    backend=backend).count


def kernel_bytes(op: str, backend: str = "numpy") -> float:
    return get_registry().counter(f"kernel.{op}_bytes_total",
                                  backend=backend).value


class _Inner(ArrayBackend):
    """The reference kernels under a label no other test records to."""
    name = "probe-inner"


def _kernel_args(op: str) -> tuple:
    """Small positional arguments for one timed kernel."""
    rng = np.random.default_rng(1)

    def arr(*shape):
        return rng.normal(size=shape).astype(np.float32)

    x, w, bias = arr(2, 3, 4), arr(5, 4), arr(5)
    return {
        "matmul": (arr(3, 4), arr(4, 2)),
        "einsum": ("ok,nkp->nop", w, arr(2, 4, 3)),
        "linear": (x, w, bias),
        "linear_act": (x, w, bias, "gelu"),
        "linear_q8": (x, rng.integers(-127, 128, size=(5, 4), dtype=np.int8),
                      arr(5), bias, "relu"),
        "softmax": (arr(3, 5),),
        "log_softmax": (arr(3, 5),),
        "layer_norm": (x, arr(4), arr(4), 1e-5),
        "conv_im2col": (arr(1, 2, 5, 5), 3, 3, 1, 1),
    }[op]


class TestConstruction:
    def test_default_inner_is_numpy(self):
        backend = ProfilingBackend()
        assert type(backend.inner) is ArrayBackend
        assert backend.name == "profiled[numpy]"

    def test_refuses_double_wrap(self):
        with pytest.raises(TypeError):
            ProfilingBackend(ProfilingBackend())

    def test_overrides_only_the_timed_kernels_with_their_signatures(self):
        """``ArrayBackend`` is exactly the timed kernels, the profiler
        overrides every one, and each keeps the base signature, so keyword
        and positional call sites stay interchangeable."""
        public = {attr for attr in dir(ArrayBackend)
                  if not attr.startswith("_")
                  and callable(getattr(ArrayBackend, attr))}
        assert public == set(PROFILED_KERNELS)
        for op in PROFILED_KERNELS:
            assert inspect.signature(getattr(ProfilingBackend, op)) \
                == inspect.signature(getattr(ArrayBackend, op)), op
        overridden = {attr for attr, value in vars(ProfilingBackend).items()
                      if callable(value) and not attr.startswith("_")}
        assert overridden == set(PROFILED_KERNELS)

    def test_wrapping_the_active_backend_records_under_numpy(self):
        """The e2e ``backend.*`` probe wraps ``nn.get_backend()`` and reads
        ``kernel.<op>_seconds{backend="numpy"}``."""
        backend = ProfilingBackend(nn.get_backend())
        assert backend.inner is nn.get_backend()
        before = kernel_count("softmax", backend="numpy")
        backend.softmax(np.ones((2, 3), dtype=np.float32))
        assert kernel_count("softmax", backend="numpy") == before + 1


class TestTiming:
    def test_matmul_observed_with_bytes(self):
        backend = ProfilingBackend()
        a = np.ones((4, 8), dtype=np.float32)
        b = np.ones((8, 2), dtype=np.float32)
        before = kernel_count("matmul")
        bytes_before = kernel_bytes("matmul")
        y = backend.matmul(a, b)
        np.testing.assert_allclose(y, a @ b)
        assert kernel_count("matmul") == before + 1
        assert kernel_bytes("matmul") - bytes_before == \
            a.nbytes + b.nbytes + y.nbytes

    def test_every_profiled_kernel_has_instruments(self):
        backend = ProfilingBackend()
        for op in PROFILED_KERNELS:
            assert op in backend._seconds and op in backend._bytes

    def test_softmax_matches_inner(self):
        backend = ProfilingBackend()
        x = np.random.default_rng(0).normal(size=(3, 5)).astype(np.float32)
        before = kernel_count("softmax")
        np.testing.assert_allclose(backend.softmax(x),
                                   backend.inner.softmax(x))
        assert kernel_count("softmax") == before + 1

    @pytest.mark.parametrize("op", PROFILED_KERNELS)
    def test_timed_kernel_is_the_inner_kernel_recorded_once(self, op):
        """Each timed kernel forwards its positional arguments in order,
        returns the inner result unchanged, and records one observation of
        itself only (``linear_act`` records no nested ``linear``), with
        bytes = every array operand in + the result out."""
        inner = _Inner()
        backend = ProfilingBackend(inner)
        args = _kernel_args(op)
        counts = {k: kernel_count(k, "probe-inner") for k in PROFILED_KERNELS}
        bytes_before = kernel_bytes(op, "probe-inner")
        got = getattr(backend, op)(*args)
        want = getattr(inner, op)(*args)
        if op == "conv_im2col":               # (cols, out_h, out_w)
            assert got[1:] == want[1:]
            got, want = got[0], want[0]
        np.testing.assert_array_equal(got, want)
        assert {k: kernel_count(k, "probe-inner") - counts[k]
                for k in PROFILED_KERNELS} \
            == {k: int(k == op) for k in PROFILED_KERNELS}
        operands = [a for a in args if isinstance(a, np.ndarray)]
        assert kernel_bytes(op, "probe-inner") - bytes_before \
            == sum(a.nbytes for a in operands) + got.nbytes

    def test_timed_kernels_run_the_inner_override(self):
        """A timed kernel is the inner instance's, override included, and is
        recorded under the inner's name."""
        class Custom(ArrayBackend):
            name = "probe-custom"

            def __init__(self):
                self.calls = []

            def matmul(self, a, b, out=None):
                self.calls.append("matmul")
                return super().matmul(a, b, out=out)

        inner = Custom()
        backend = ProfilingBackend(inner)
        assert backend.name == "profiled[probe-custom]"
        a = np.ones((2, 3), dtype=np.float32)
        before = kernel_count("matmul", "probe-custom")
        backend.matmul(a, a.T)
        assert inner.calls == ["matmul"]
        assert kernel_count("matmul", "probe-custom") == before + 1

    def test_untimed_primitives_record_nothing(self):
        """Ops outside the nine kernels are plain numpy: running them
        under a profiler records no kernel."""
        x = nn.Tensor(np.random.default_rng(2).normal(size=(2, 3, 4))
                      .astype(np.float32))
        counts = {k: kernel_count(k, "probe-inner") for k in PROFILED_KERNELS}
        with nn.use_backend(ProfilingBackend(_Inner())), nn.no_grad():
            ops.gelu(x)
            ops.one_hot([0, 2, 1], 3)
            x.exp().sum(axis=-1)
        assert {k: kernel_count(k, "probe-inner")
                for k in PROFILED_KERNELS} == counts


class TestEndToEnd:
    def test_model_forward_profiles_kernels(self):
        rng = np.random.default_rng(0)
        model = nn.Sequential(nn.Linear(6, 8, rng=rng), nn.ReLU(),
                              nn.Linear(8, 3, rng=rng))
        x = rng.normal(size=(2, 6)).astype(np.float32)
        before = kernel_count("linear")
        with nn.use_backend(ProfilingBackend()):
            with nn.inference_mode():
                model(nn.Tensor(x))
        assert kernel_count("linear") > before
