"""Numerical gradient checks for every differentiable op.

Each test compares the analytic backward rule against central differences
in float64; failures here indicate a wrong gradient, the most dangerous
kind of bug in a from-scratch autograd.
"""

import numpy as np
import pytest

from repro.nn import ops
from tests.oracles import check_gradient, f64
from repro.nn.tensor import Tensor, concat, stack, where

RNG = np.random.default_rng(42)


def _assert_grad(fn, x, **kw):
    ok, err = check_gradient(fn, x, **kw)
    assert ok, f"max gradient error {err:.3e}"


class TestElementwiseGrads:
    def test_add(self):
        _assert_grad(lambda t: (t + 2.0).sum(), RNG.normal(size=(3, 4)))

    def test_mul_by_constant_tensor(self):
        c = f64(RNG.normal(size=(3, 4)))
        _assert_grad(lambda t: (t * c).sum(), RNG.normal(size=(3, 4)))

    def test_div(self):
        c = f64(RNG.uniform(1.0, 2.0, size=(3, 4)))
        _assert_grad(lambda t: (t / c).sum(), RNG.normal(size=(3, 4)))

    def test_div_denominator(self):
        c = f64(RNG.normal(size=(3, 4)))
        _assert_grad(lambda t: (c / t).sum(), RNG.uniform(1.0, 2.0, size=(3, 4)))

    def test_pow(self):
        _assert_grad(lambda t: (t ** 3).sum(), RNG.uniform(0.5, 1.5, size=(4,)))

    def test_exp(self):
        _assert_grad(lambda t: t.exp().sum(), RNG.normal(size=(3, 3)))

    def test_log(self):
        _assert_grad(lambda t: t.log().sum(), RNG.uniform(0.5, 2.0, size=(3, 3)))

    def test_sqrt(self):
        _assert_grad(lambda t: t.sqrt().sum(), RNG.uniform(0.5, 2.0, size=(3,)))

    def test_tanh(self):
        _assert_grad(lambda t: t.tanh().sum(), RNG.normal(size=(3, 3)))

    def test_relu_away_from_kink(self):
        x = RNG.normal(size=(4, 4))
        x[np.abs(x) < 0.1] = 0.5
        _assert_grad(lambda t: t.relu().sum(), x)

    def test_abs_away_from_zero(self):
        x = RNG.normal(size=(4,))
        x[np.abs(x) < 0.1] = 1.0
        _assert_grad(lambda t: t.abs().sum(), x)

    def test_clip_interior(self):
        _assert_grad(lambda t: t.clip(-10.0, 10.0).sum(), RNG.normal(size=(3,)))

    def test_gelu(self):
        _assert_grad(lambda t: ops.gelu(t).sum(), RNG.normal(size=(3, 4)))


class TestReductionGrads:
    def test_sum_all(self):
        _assert_grad(lambda t: t.sum(), RNG.normal(size=(2, 3)))

    def test_sum_axis(self):
        _assert_grad(lambda t: (t.sum(axis=0) ** 2).sum(), RNG.normal(size=(2, 3)))

    def test_mean(self):
        _assert_grad(lambda t: (t.mean(axis=1) ** 2).sum(), RNG.normal(size=(2, 3)))

    def test_var(self):
        _assert_grad(lambda t: t.var(axis=-1).sum(), RNG.normal(size=(2, 5)))

    def test_max_unique(self):
        x = np.arange(12, dtype=np.float64).reshape(3, 4)
        _assert_grad(lambda t: t.max(axis=1).sum(), x)

    def test_weighted_sum(self):
        w = f64(RNG.normal(size=(2, 3)))
        _assert_grad(lambda t: (t * w).sum(), RNG.normal(size=(2, 3)))


class TestShapeGrads:
    def test_reshape(self):
        _assert_grad(lambda t: (t.reshape(6) ** 2).sum(), RNG.normal(size=(2, 3)))

    def test_transpose(self):
        _assert_grad(lambda t: (t.transpose(1, 0) ** 2).sum(), RNG.normal(size=(2, 3)))

    def test_getitem(self):
        _assert_grad(lambda t: (t[1:, :2] ** 2).sum(), RNG.normal(size=(3, 3)))

    def test_getitem_fancy(self):
        idx = np.array([0, 2, 2])
        _assert_grad(lambda t: (t[idx] ** 2).sum(), RNG.normal(size=(4, 2)))

    def test_pad(self):
        _assert_grad(lambda t: (t.pad(((1, 1), (1, 1))) ** 2).sum(),
                     RNG.normal(size=(2, 2)))

    def test_concat(self):
        other = f64(RNG.normal(size=(2, 3)))
        _assert_grad(lambda t: (concat([t, other], axis=0) ** 2).sum(),
                     RNG.normal(size=(2, 3)))

    def test_stack(self):
        other = f64(RNG.normal(size=(3,)))
        _assert_grad(lambda t: (stack([t, other]) ** 2).sum(),
                     RNG.normal(size=(3,)))

    def test_where(self):
        cond = np.array([[True, False, True]])
        other = f64(RNG.normal(size=(1, 3)))
        _assert_grad(lambda t: (where(cond, t, other) ** 2).sum(),
                     RNG.normal(size=(1, 3)))


class TestMatmulGrads:
    def test_matmul_2d_left(self):
        b = f64(RNG.normal(size=(3, 4)))
        _assert_grad(lambda t: (t @ b).sum(), RNG.normal(size=(2, 3)))

    def test_matmul_2d_right(self):
        a = f64(RNG.normal(size=(2, 3)))
        _assert_grad(lambda t: (a @ t).sum(), RNG.normal(size=(3, 4)))

    def test_matmul_batched(self):
        b = f64(RNG.normal(size=(5, 3, 4)))
        _assert_grad(lambda t: (t @ b).sum(), RNG.normal(size=(5, 2, 3)))

    def test_matmul_broadcast_batch(self):
        b = f64(RNG.normal(size=(3, 4)))
        _assert_grad(lambda t: (t @ b).sum(), RNG.normal(size=(5, 2, 3)))

    def test_matmul_vector_right(self):
        v = f64(RNG.normal(size=(3,)))
        _assert_grad(lambda t: (t @ v).sum(), RNG.normal(size=(2, 3)))

    def test_matmul_vector_left(self):
        m = f64(RNG.normal(size=(3, 4)))
        _assert_grad(lambda t: (t @ m).sum(), RNG.normal(size=(3,)))


class TestNNOpsGrads:
    def test_softmax(self):
        w = f64(RNG.normal(size=(2, 5)))
        _assert_grad(lambda t: (ops.softmax(t) * w).sum(), RNG.normal(size=(2, 5)))

    def test_log_softmax(self):
        w = f64(RNG.normal(size=(2, 5)))
        _assert_grad(lambda t: (ops.log_softmax(t) * w).sum(),
                     RNG.normal(size=(2, 5)))

    def test_layer_norm_input(self):
        weight = f64(RNG.uniform(0.5, 1.5, size=6))
        bias = f64(RNG.normal(size=6))
        _assert_grad(lambda t: (ops.layer_norm(t, weight, bias) ** 2).sum(),
                     RNG.normal(size=(2, 3, 6)), rtol=2e-2)

    def test_layer_norm_weight(self):
        x = f64(RNG.normal(size=(2, 6)))
        bias = f64(np.zeros(6))
        _assert_grad(lambda t: (ops.layer_norm(x, t, bias) ** 2).sum(),
                     RNG.uniform(0.5, 1.5, size=6))

    def test_layer_norm_bias(self):
        x = f64(RNG.normal(size=(2, 6)))
        weight = f64(np.ones(6))
        _assert_grad(lambda t: (ops.layer_norm(x, weight, t) ** 2).sum(),
                     RNG.normal(size=6))

    def test_conv2d_input(self):
        w = f64(RNG.normal(size=(2, 3, 3, 3)))
        b = f64(RNG.normal(size=2))
        _assert_grad(lambda t: (ops.conv2d(t, w, b, stride=1, padding=1) ** 2).sum(),
                     RNG.normal(size=(2, 3, 5, 5)))

    def test_conv2d_weight(self):
        x = f64(RNG.normal(size=(2, 3, 5, 5)))
        b = f64(np.zeros(2))
        _assert_grad(lambda t: (ops.conv2d(x, t, b) ** 2).sum(),
                     RNG.normal(size=(2, 3, 3, 3)))

    def test_conv2d_bias(self):
        x = f64(RNG.normal(size=(1, 2, 4, 4)))
        w = f64(RNG.normal(size=(3, 2, 3, 3)))
        _assert_grad(lambda t: (ops.conv2d(x, w, t) ** 2).sum(),
                     RNG.normal(size=3))

    def test_conv2d_strided(self):
        w = f64(RNG.normal(size=(2, 1, 2, 2)))
        _assert_grad(lambda t: (ops.conv2d(t, w, None, stride=2) ** 2).sum(),
                     RNG.normal(size=(1, 1, 6, 6)))

    def test_max_pool(self):
        x = RNG.normal(size=(1, 2, 4, 4))
        x += np.arange(x.size).reshape(x.shape) * 0.01  # break ties
        _assert_grad(lambda t: (ops.max_pool2d(t, 2) ** 2).sum(), x)

    def test_avg_pool(self):
        _assert_grad(lambda t: (ops.avg_pool2d(t, 2) ** 2).sum(),
                     RNG.normal(size=(1, 2, 4, 4)))

    def test_linear(self):
        w = f64(RNG.normal(size=(4, 3)))
        b = f64(RNG.normal(size=4))
        _assert_grad(lambda t: (ops.linear(t, w, b) ** 2).sum(),
                     RNG.normal(size=(2, 3)))


class TestBatchNormGrad:
    def test_batch_norm_train_input(self):
        weight = f64(RNG.uniform(0.5, 1.5, size=2))
        bias = f64(RNG.normal(size=2))

        def fn(t):
            rm = np.zeros(2)
            rv = np.ones(2)
            return (ops.batch_norm_2d(t, weight, bias, rm, rv,
                                      training=True) ** 2).sum()

        _assert_grad(fn, RNG.normal(size=(3, 2, 4, 4)), rtol=3e-2, atol=1e-3)

    def test_batch_norm_eval_input(self):
        weight = f64(np.ones(2))
        bias = f64(np.zeros(2))
        rm = RNG.normal(size=2)
        rv = RNG.uniform(0.5, 1.5, size=2)

        def fn(t):
            return (ops.batch_norm_2d(t, weight, bias, rm.copy(), rv.copy(),
                                      training=False) ** 2).sum()

        _assert_grad(fn, RNG.normal(size=(2, 2, 3, 3)))


class TestSpikeSurrogate:
    def test_spike_forward_is_step(self):
        from repro.models.snn import spike_fn

        x = Tensor(np.array([0.5, 1.5], dtype=np.float32), requires_grad=True)
        out = spike_fn(x, threshold=1.0)
        np.testing.assert_allclose(out.data, [0.0, 1.0])

    def test_spike_surrogate_gradient_flows(self):
        from repro.models.snn import spike_fn

        x = Tensor(np.array([0.9, 1.1], dtype=np.float32), requires_grad=True)
        spike_fn(x, threshold=1.0).sum().backward()
        assert (x.grad > 0).all()  # fast-sigmoid surrogate is positive
