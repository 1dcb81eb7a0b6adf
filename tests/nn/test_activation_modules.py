"""Activation-module wrappers and remaining module coverage."""

import numpy as np

from repro import nn


RNG = np.random.default_rng(3)


class TestActivationModules:
    def test_relu_module_matches_method(self):
        x = nn.Tensor(RNG.normal(size=(4, 4)).astype(np.float32))
        np.testing.assert_array_equal(nn.ReLU()(x).data, x.relu().data)

    def test_activations_have_no_parameters(self):
        for module in (nn.ReLU(), nn.Flatten(), nn.Dropout(0.5)):
            assert module.num_parameters() == 0


class TestDropoutSemantics:
    def test_zero_probability_is_identity_even_in_train(self):
        drop = nn.Dropout(0.0)
        x = nn.Tensor(np.ones((8, 8)))
        assert drop(x) is x

    def test_gradient_flows_through_surviving_units(self):
        drop = nn.Dropout(0.5, rng=np.random.default_rng(0))
        x = nn.Tensor(np.ones((16, 16), dtype=np.float32),
                      requires_grad=True)
        out = drop(x)
        out.sum().backward()
        # Gradient is exactly the dropout mask (0 or 1/keep).
        np.testing.assert_array_equal(x.grad != 0, out.data != 0)

    def test_deterministic_with_seeded_rng(self):
        x = nn.Tensor(np.ones((8, 8)))
        a = nn.Dropout(0.5, rng=np.random.default_rng(42))(x).data
        b = nn.Dropout(0.5, rng=np.random.default_rng(42))(x).data
        np.testing.assert_array_equal(a, b)


class TestPoolModules:
    def test_avgpool_module(self):
        x = nn.Tensor(np.ones((1, 2, 4, 4), dtype=np.float32))
        out = nn.AvgPool2d(2)(x)
        assert out.shape == (1, 2, 2, 2)
        np.testing.assert_allclose(out.data, 1.0)

    def test_maxpool_custom_stride(self):
        x = nn.Tensor(np.arange(36, dtype=np.float32).reshape(1, 1, 6, 6))
        out = nn.MaxPool2d(2)(x)
        assert out.shape == (1, 1, 3, 3)


class TestInitializers:
    def test_trunc_normal_bounded(self):
        from repro.nn.init import trunc_normal

        out = trunc_normal(np.random.default_rng(0), (1000,))
        assert np.abs(out).max() <= 0.04 + 1e-6
