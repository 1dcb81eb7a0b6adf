"""Fusion-strategy tests: MLP fusion, softmax averaging, entire retrain."""

import numpy as np
import pytest

from repro.core.inference import predict_probabilities
from repro.pruning.pipeline import PruneConfig, prune_submodel
from repro.serving.demo import fused_labels
from repro.splitting.fusion import (
    collect_features,
    entire_retrain,
    softmax_average_accuracy,
    softmax_average_predict,
    train_fusion_mlp,
)

FAST = PruneConfig(probe_size=8, head_adapt_epochs=1, stage_finetune_epochs=0,
                   retrain_epochs=1, backend="magnitude")

GROUPS = [list(range(0, 5)), list(range(5, 10))]


@pytest.fixture(scope="module")
def split_system(trained_tiny_vit, tiny_dataset):
    """Two sub-models covering classes 0-4 and 5-9, plus a fusion MLP."""
    models = [
        prune_submodel(trained_tiny_vit, tiny_dataset, group, hp=1,
                       config=FAST).model
        for group in GROUPS]
    fusion = train_fusion_mlp(models, tiny_dataset, epochs=4, seed=0)
    return models, fusion


class TestCollectFeatures:
    def test_concatenated_width(self, split_system, tiny_dataset):
        subs, _ = split_system
        feats = collect_features(subs, tiny_dataset.x_test)
        expected = sum(model.feature_dim() for model in subs)
        assert feats.shape == (len(tiny_dataset.x_test), expected)

    def test_deterministic(self, split_system, tiny_dataset):
        subs, _ = split_system
        a = collect_features(subs, tiny_dataset.x_test[:4])
        b = collect_features(subs, tiny_dataset.x_test[:4])
        np.testing.assert_array_equal(a, b)


class TestFusedPrediction:
    def test_prediction_shape_and_range(self, split_system, tiny_dataset):
        subs, fusion = split_system
        pred = fused_labels(subs, fusion, tiny_dataset.x_test)
        assert pred.shape == (len(tiny_dataset.x_test),)
        assert set(np.unique(pred)).issubset(set(range(10)))

    def test_beats_chance(self, split_system, tiny_dataset):
        subs, fusion = split_system
        pred = fused_labels(subs, fusion, tiny_dataset.x_test)
        assert (pred == tiny_dataset.y_test).mean() > 0.1

    def test_fusion_input_dim_matches(self, split_system):
        subs, fusion = split_system
        assert fusion.config.input_dim == sum(model.feature_dim()
                                              for model in subs)


class TestSoftmaxAveraging:
    def test_prediction_covers_full_classes(self, split_system, tiny_dataset):
        subs, _ = split_system
        pred = softmax_average_predict(subs, GROUPS, 10, tiny_dataset.x_test)
        assert pred.shape == (len(tiny_dataset.x_test),)
        assert pred.max() < 10

    def test_every_class_reachable(self, split_system, tiny_dataset):
        subs, _ = split_system
        pred = softmax_average_predict(subs, GROUPS, 10, tiny_dataset.x_test)
        assert {int(p) in GROUPS[0] for p in pred} == {True, False}

    def test_accuracy_beats_chance(self, split_system, tiny_dataset):
        subs, _ = split_system
        assert softmax_average_accuracy(subs, GROUPS, tiny_dataset) > 0.1

    def test_singleton_group_is_one_vs_rest(self, trained_tiny_vit,
                                            tiny_dataset):
        # A singleton group's sub-model is a binary own-class-vs-rest head:
        # its column 1 scores the class, so a confident positive wins it.
        groups = [[0], list(range(1, 10))]
        models = [prune_submodel(trained_tiny_vit, tiny_dataset, group, hp=1,
                                 config=FAST).model for group in groups]
        assert models[0].config.num_classes == 2
        x = tiny_dataset.x_test
        pred = softmax_average_predict(models, groups, 10, x)
        own = predict_probabilities(models[0], x)[:, 1]
        rest = predict_probabilities(models[1], x).max(axis=-1)
        np.testing.assert_array_equal(pred == 0, own > rest)


class TestEntireRetrain:
    def test_updates_submodels_and_fusion(self, trained_tiny_vit, tiny_dataset):
        subs = [prune_submodel(trained_tiny_vit, tiny_dataset, [0, 1],
                               hp=1, config=FAST).model,
                prune_submodel(trained_tiny_vit, tiny_dataset,
                               list(range(2, 10)), hp=1, config=FAST).model]
        fusion = train_fusion_mlp(subs, tiny_dataset, epochs=2, seed=0)
        before_fusion = fusion.fc1.weight.data.copy()
        before_sub = subs[0].patch_embed.proj.weight.data.copy()
        entire_retrain(subs, fusion, tiny_dataset, epochs=1, batch_size=16)
        assert not np.allclose(before_fusion, fusion.fc1.weight.data)
        # Sub-model backbone parameters also move under joint training
        # (the classification head is not on the fused path, so we check
        # the patch embedding instead).
        assert not np.allclose(before_sub,
                               subs[0].patch_embed.proj.weight.data)

    def test_does_not_degrade_catastrophically(self, trained_tiny_vit,
                                               tiny_dataset):
        subs = [prune_submodel(trained_tiny_vit, tiny_dataset, group, hp=1,
                               config=FAST).model for group in GROUPS]
        fusion = train_fusion_mlp(subs, tiny_dataset, epochs=3, seed=0)
        entire_retrain(subs, fusion, tiny_dataset, epochs=1, batch_size=16)
        pred = fused_labels(subs, fusion, tiny_dataset.x_test)
        assert (pred == tiny_dataset.y_test).mean() > 0.1
