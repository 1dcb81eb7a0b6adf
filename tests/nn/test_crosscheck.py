"""Cross-checks of repro.nn ops against scipy/numpy reference
implementations — independent oracles for the from-scratch kernels."""

import numpy as np
import pytest
import scipy.signal
import scipy.special

from repro.nn import ops
from repro.nn.backend import apply_activation
from repro.nn.tensor import Tensor
from tests.oracles import f64

RNG = np.random.default_rng(7)


class TestConvAgainstScipy:
    @pytest.mark.parametrize("pad", [0, 1, 2])
    def test_conv2d_matches_scipy_correlate(self, pad):
        x = RNG.normal(size=(2, 3, 7, 7)).astype(np.float64)
        w = RNG.normal(size=(4, 3, 3, 3)).astype(np.float64)
        out = ops.conv2d(f64(x), f64(w), None, stride=1,
                         padding=pad).data

        xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        expected = np.zeros_like(out)
        for n in range(2):
            for o in range(4):
                acc = np.zeros((xp.shape[2] - 2, xp.shape[3] - 2))
                for c in range(3):
                    acc += scipy.signal.correlate2d(xp[n, c], w[o, c],
                                                    mode="valid")
                expected[n, o] = acc
        np.testing.assert_allclose(out, expected, rtol=1e-10, atol=1e-10)

    def test_strided_conv_subsamples_scipy_result(self):
        x = RNG.normal(size=(1, 1, 8, 8)).astype(np.float64)
        w = RNG.normal(size=(1, 1, 2, 2)).astype(np.float64)
        ours = ops.conv2d(f64(x), f64(w), None, stride=2).data
        dense = scipy.signal.correlate2d(x[0, 0], w[0, 0], mode="valid")
        np.testing.assert_allclose(ours[0, 0], dense[::2, ::2], rtol=1e-10)


class TestActivationsAgainstScipy:
    def test_softmax_matches_scipy(self):
        x = RNG.normal(size=(4, 9)).astype(np.float64)
        ours = ops.softmax(f64(x), axis=-1).data
        np.testing.assert_allclose(ours, scipy.special.softmax(x, axis=-1),
                                   rtol=1e-10)

    def test_log_softmax_matches_scipy(self):
        x = RNG.normal(size=(4, 9)).astype(np.float64)
        ours = ops.log_softmax(f64(x), axis=-1).data
        np.testing.assert_allclose(ours, scipy.special.log_softmax(x, axis=-1),
                                   rtol=1e-10)

    def test_sigmoid_matches_scipy_expit(self):
        x = RNG.normal(size=(50,)).astype(np.float64)
        ours = apply_activation("sigmoid", x.copy())
        np.testing.assert_allclose(ours, scipy.special.expit(x), rtol=1e-10)

    def test_gelu_tanh_close_to_exact_erf_gelu(self):
        # Our tanh approximation should track the exact erf GELU closely.
        x = np.linspace(-4, 4, 200)
        ours = ops.gelu(f64(x)).data
        exact = 0.5 * x * (1.0 + scipy.special.erf(x / np.sqrt(2.0)))
        assert np.abs(ours - exact).max() < 5e-3


class TestKLAgainstScipy:
    def test_kl_matches_scipy_rel_entr(self):
        from repro.nn.losses import kl_divergence

        p = RNG.dirichlet(np.ones(6), size=5)
        q = RNG.dirichlet(np.ones(6), size=5)
        ours = kl_divergence(p, q)
        expected = scipy.special.rel_entr(p, q).sum(axis=-1)
        np.testing.assert_allclose(ours, expected, rtol=1e-8)


class TestLayerNormAgainstNumpy:
    def test_layer_norm_matches_reference(self):
        x = RNG.normal(size=(3, 5, 8)).astype(np.float64)
        weight = RNG.uniform(0.5, 1.5, size=8)
        bias = RNG.normal(size=8)
        ours = ops.layer_norm(f64(x), f64(weight),
                              f64(bias), eps=1e-5).data
        mu = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        expected = (x - mu) / np.sqrt(var + 1e-5) * weight + bias
        np.testing.assert_allclose(ours, expected, rtol=1e-9)
