"""Loss-function tests: values, gradients, and the KL importance metric."""

import numpy as np
import pytest

from repro import nn
from repro.nn.losses import accuracy, cross_entropy, kl_divergence
from repro.nn.tensor import Tensor


class TestCrossEntropy:
    def test_uniform_logits_give_log_c(self):
        logits = Tensor(np.zeros((4, 10), dtype=np.float32))
        loss = cross_entropy(logits, np.zeros(4, dtype=np.int64))
        assert loss.item() == pytest.approx(np.log(10), rel=1e-4)

    def test_confident_correct_is_near_zero(self):
        logits = np.full((2, 3), -20.0, dtype=np.float32)
        logits[:, 1] = 20.0
        loss = cross_entropy(Tensor(logits), np.array([1, 1]))
        assert loss.item() < 1e-3

    def test_confident_wrong_is_large(self):
        logits = np.full((1, 3), -20.0, dtype=np.float32)
        logits[:, 1] = 20.0
        loss = cross_entropy(Tensor(logits), np.array([0]))
        assert loss.item() > 10

    def test_gradient_is_softmax_minus_onehot(self):
        logits = Tensor(np.array([[1.0, 2.0, 0.5]], dtype=np.float32),
                        requires_grad=True)
        cross_entropy(logits, np.array([2])).backward()
        probs = np.exp(logits.data) / np.exp(logits.data).sum()
        expected = probs.copy()
        expected[0, 2] -= 1.0
        np.testing.assert_allclose(logits.grad, expected, rtol=1e-4)

    def test_numerically_stable_with_large_logits(self):
        logits = Tensor(np.array([[1e4, -1e4]], dtype=np.float32))
        loss = cross_entropy(logits, np.array([0]))
        assert np.isfinite(loss.item())


class TestKLDivergence:
    def test_zero_for_identical_distributions(self):
        p = np.array([[0.2, 0.3, 0.5]])
        assert kl_divergence(p, p)[0] == pytest.approx(0.0, abs=1e-9)

    def test_positive_for_different(self):
        p = np.array([[0.9, 0.1]])
        q = np.array([[0.1, 0.9]])
        assert kl_divergence(p, q)[0] > 0

    def test_asymmetric(self):
        p = np.array([[0.9, 0.1]])
        q = np.array([[0.5, 0.5]])
        assert kl_divergence(p, q)[0] != pytest.approx(kl_divergence(q, p)[0])

    def test_known_value(self):
        p = np.array([[0.5, 0.5]])
        q = np.array([[0.25, 0.75]])
        expected = 0.5 * np.log(2) + 0.5 * np.log(0.5 / 0.75)
        assert kl_divergence(p, q)[0] == pytest.approx(expected, rel=1e-6)

    def test_renormalizes_inputs(self):
        p = np.array([[2.0, 2.0]])  # unnormalized uniform
        q = np.array([[0.5, 0.5]])
        assert kl_divergence(p, q)[0] == pytest.approx(0.0, abs=1e-9)

    def test_handles_zero_probabilities(self):
        p = np.array([[1.0, 0.0]])
        q = np.array([[0.5, 0.5]])
        assert np.isfinite(kl_divergence(p, q)[0])

    def test_batched_output_shape(self):
        p = np.random.default_rng(0).dirichlet(np.ones(5), size=7)
        q = np.random.default_rng(1).dirichlet(np.ones(5), size=7)
        assert kl_divergence(p, q).shape == (7,)


class TestAccuracy:
    def test_perfect(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert accuracy(logits, np.array([0, 1])) == 1.0

    def test_half(self):
        logits = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert accuracy(logits, np.array([0, 1])) == 0.5

    def test_accepts_tensor(self):
        logits = Tensor(np.array([[1.0, 0.0]], dtype=np.float32))
        assert accuracy(logits, np.array([0])) == 1.0
