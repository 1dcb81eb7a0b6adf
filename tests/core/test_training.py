"""Training-loop tests."""

import numpy as np
import pytest

from repro import nn
from repro.core.inference import (
    evaluate,
    extract_features,
    predict,
    predict_probabilities,
)
from repro.core.training import TrainConfig, train_classifier


def linear_problem(n=80, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, dim)).astype(np.float32)
    y = (x[:, 0] + x[:, 1] > 0).astype(np.int64)
    return x, y


def small_mlp(dim=4, classes=2, seed=0):
    rng = np.random.default_rng(seed)
    return nn.Sequential(nn.Linear(dim, 16, rng=rng), nn.ReLU(),
                         nn.Linear(16, classes, rng=rng))


class TestTrainClassifier:
    def test_loss_decreases(self):
        x, y = linear_problem()
        result = train_classifier(small_mlp(), x, y,
                                  TrainConfig(epochs=10, lr=1e-2))
        assert result.train_losses[-1] < result.train_losses[0]

    def test_reaches_high_accuracy_on_separable(self):
        x, y = linear_problem()
        model = small_mlp()
        result = train_classifier(model, x, y, TrainConfig(epochs=25, lr=1e-2))
        assert result.final_accuracy > 0.9

    def test_curves_have_epoch_length(self):
        x, y = linear_problem()
        result = train_classifier(small_mlp(), x, y, TrainConfig(epochs=4))
        assert len(result.train_losses) == 4
        assert len(result.train_accuracies) == 4

    def test_model_left_in_eval_mode(self):
        x, y = linear_problem()
        model = small_mlp()
        train_classifier(model, x, y, TrainConfig(epochs=1))
        assert not model.training

    def test_deterministic_given_seed(self):
        x, y = linear_problem()
        m1, m2 = small_mlp(seed=3), small_mlp(seed=3)
        r1 = train_classifier(m1, x, y, TrainConfig(epochs=3, seed=11))
        r2 = train_classifier(m2, x, y, TrainConfig(epochs=3, seed=11))
        assert r1.train_losses == r2.train_losses
        np.testing.assert_array_equal(m1[0].weight.data, m2[0].weight.data)

    def test_wall_time_recorded(self):
        x, y = linear_problem()
        result = train_classifier(small_mlp(), x, y, TrainConfig(epochs=1))
        assert result.wall_seconds > 0


class TestInference:
    def test_predict_logits_shape(self):
        x, y = linear_problem()
        model = small_mlp()
        assert predict(model, x).shape == (len(x), 2)

    def test_predict_batching_consistent(self):
        x, _ = linear_problem()
        model = small_mlp()
        a = predict(model, x, batch_size=7)
        b = predict(model, x, batch_size=64)
        np.testing.assert_allclose(a, b, atol=1e-5)

    def test_probabilities_normalized(self):
        x, _ = linear_problem()
        probs = predict_probabilities(small_mlp(), x)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, rtol=1e-5)
        assert (probs >= 0).all()

    def test_evaluate_range(self):
        x, y = linear_problem()
        acc = evaluate(small_mlp(), x, y)
        assert 0.0 <= acc <= 1.0

    def test_extract_features_uses_forward_features(self, trained_tiny_vit,
                                                    tiny_dataset):
        feats = extract_features(trained_tiny_vit, tiny_dataset.x_test[:6])
        assert feats.shape == (6, trained_tiny_vit.feature_dim())

    def test_trained_tiny_vit_beats_chance(self, trained_tiny_vit,
                                           tiny_dataset):
        acc = evaluate(trained_tiny_vit, tiny_dataset.x_test,
                       tiny_dataset.y_test)
        assert acc > 0.4  # 10-class chance is 0.1
