"""Dtype-propagation regression tests and gradcheck-utility tests.

The dtype tests pin a fixed bug: op outputs used to be routed through the
public constructor, silently downcasting float64 graphs to float32 and
ruining numerical gradient checks.
"""

import numpy as np
import pytest

from tests.oracles import check_gradient, f64, numerical_gradient
from repro.nn.tensor import Tensor, concat


class TestDtypePropagation:
    def test_float64_survives_arithmetic(self):
        t = f64(np.zeros((2, 2)))
        assert (t + 1.0).dtype == np.float64
        assert (t * 2.0).dtype == np.float64
        assert (t - t).dtype == np.float64

    def test_float64_survives_reductions(self):
        t = f64(np.ones((3, 4)))
        assert t.sum(axis=0).dtype == np.float64
        assert t.mean(axis=-1).dtype == np.float64
        assert t.var(axis=-1).dtype == np.float64

    def test_float64_survives_matmul_and_shape_ops(self):
        a = f64(np.ones((2, 3)))
        b = f64(np.ones((3, 4)))
        assert (a @ b).dtype == np.float64
        assert a.reshape(6).dtype == np.float64
        assert a.transpose().dtype == np.float64

    def test_float64_survives_nn_ops(self):
        from repro.nn import ops

        t = f64(np.ones((2, 8)))
        assert ops.softmax(t).dtype == np.float64
        assert ops.gelu(t).dtype == np.float64

    def test_float32_stays_float32_in_training_path(self):
        t = Tensor(np.ones((2, 2), dtype=np.float32))
        out = ((t * 2.0 + 1.0) / 3.0).mean()
        assert out.dtype == np.float32

    def test_concat_mixed_inputs(self):
        a = f64(np.ones(2))
        b = f64(np.ones(2))
        assert concat([a, b]).dtype == np.float64


class TestNumericalGradient:
    def test_quadratic(self):
        x = np.array([1.0, -2.0, 3.0])
        grad = numerical_gradient(lambda a: float((a ** 2).sum()), x.copy())
        np.testing.assert_allclose(grad, 2 * x, rtol=1e-5)

    def test_linear(self):
        w = np.array([2.0, -1.0])
        grad = numerical_gradient(lambda a: float(a @ w), np.zeros(2))
        np.testing.assert_allclose(grad, w, rtol=1e-5)

    def test_does_not_mutate_input(self):
        x = np.array([1.0, 2.0])
        copy = x.copy()
        numerical_gradient(lambda a: float(a.sum()), x)
        np.testing.assert_array_equal(x, copy)


class TestCheckGradient:
    def test_passes_for_correct_gradient(self):
        ok, err = check_gradient(lambda t: (t ** 2).sum(),
                                 np.array([1.0, 2.0]))
        assert ok
        assert err < 1e-3

    def test_rejects_non_scalar_output(self):
        with pytest.raises(ValueError):
            check_gradient(lambda t: t * 2.0, np.array([1.0, 2.0]))

    def test_reports_error_magnitude(self):
        ok, err = check_gradient(lambda t: t.sum(), np.array([5.0]))
        assert ok
        assert err >= 0.0
