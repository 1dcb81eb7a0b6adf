"""Algorithm 2 pipeline tests (class-wise sub-model pruning)."""

import numpy as np
import pytest

from repro.core.training import evaluate
from repro.pruning.pipeline import PruneConfig, prune_submodel
from repro.pruning.structured import pruned_dims

FAST = PruneConfig(probe_size=8, head_adapt_epochs=1, stage_finetune_epochs=0,
                   retrain_epochs=1, backend="magnitude")


class TestPruneSubmodel:
    def test_output_config_matches_schedule(self, trained_tiny_vit, tiny_dataset):
        sub = prune_submodel(trained_tiny_vit, tiny_dataset, [0, 1, 2],
                             hp=2, config=FAST)
        dims = pruned_dims(trained_tiny_vit.config, 2)
        assert sub.model.config.embed_dim == dims["embed_dim"]
        assert sub.model.config.resolved_attn_dim == dims["attn_dim"]
        assert sub.model.config.resolved_mlp_hidden == dims["mlp_hidden"]

    def test_head_matches_class_subset(self, trained_tiny_vit, tiny_dataset):
        sub = prune_submodel(trained_tiny_vit, tiny_dataset, [3, 7],
                             hp=1, config=FAST)
        assert sub.model.config.num_classes == 2
        assert sub.classes == [3, 7]

    def test_history_records_stages(self, trained_tiny_vit, tiny_dataset):
        cfg = PruneConfig(probe_size=8, head_adapt_epochs=1,
                          stage_finetune_epochs=1, retrain_epochs=1,
                          backend="magnitude")
        sub = prune_submodel(trained_tiny_vit, tiny_dataset, [0, 1], hp=1,
                             config=cfg)
        for key in ("head_adapt_acc", "stage1_finetune_acc",
                    "stage2_finetune_acc", "stage3_finetune_acc",
                    "retrain_acc"):
            assert key in sub.history

    def test_hp_zero_skips_pruning(self, trained_tiny_vit, tiny_dataset):
        sub = prune_submodel(trained_tiny_vit, tiny_dataset,
                             list(range(10)), hp=0, config=FAST)
        assert sub.model.config.embed_dim == trained_tiny_vit.config.embed_dim

    def test_hp_zero_full_classes_keeps_trained_head(self, trained_tiny_vit,
                                                     tiny_dataset):
        cfg = PruneConfig(probe_size=8, head_adapt_epochs=0, retrain_epochs=0,
                          backend="magnitude")
        sub = prune_submodel(trained_tiny_vit, tiny_dataset,
                             list(range(10)), hp=0, config=cfg)
        np.testing.assert_array_equal(sub.model.head.weight.data,
                                      trained_tiny_vit.head.weight.data)

    def test_pruned_model_beats_chance_on_subset(self, trained_tiny_vit,
                                                 tiny_dataset):
        classes = [0, 1, 2, 3, 4]
        cfg = PruneConfig(probe_size=8, head_adapt_epochs=2,
                          stage_finetune_epochs=1, retrain_epochs=2,
                          backend="kl")
        sub = prune_submodel(trained_tiny_vit, tiny_dataset, classes, hp=1,
                             config=cfg)
        subset = tiny_dataset.subset_of_classes(classes)
        acc = evaluate(sub.model, subset.x_test, subset.y_test)
        assert acc > 1.0 / len(classes)

    def test_smaller_than_original(self, trained_tiny_vit, tiny_dataset):
        sub = prune_submodel(trained_tiny_vit, tiny_dataset, [0, 1], hp=2,
                             config=FAST)
        assert sub.model.num_parameters() < trained_tiny_vit.num_parameters()

    def test_original_model_untouched(self, trained_tiny_vit, tiny_dataset):
        before = trained_tiny_vit.state_dict()
        prune_submodel(trained_tiny_vit, tiny_dataset, [0, 1], hp=1,
                       config=FAST)
        after = trained_tiny_vit.state_dict()
        for key in before:
            np.testing.assert_array_equal(before[key], after[key])


class TestOneVsRest:
    def test_singleton_subset_becomes_binary(self, trained_tiny_vit,
                                             tiny_dataset):
        sub = prune_submodel(trained_tiny_vit, tiny_dataset, [3], hp=2,
                             config=FAST)
        assert sub.model.config.num_classes == 2
        assert sub.classes == [3]

    def test_multi_class_subset_not_binary(self, trained_tiny_vit,
                                           tiny_dataset):
        sub = prune_submodel(trained_tiny_vit, tiny_dataset, [3, 4], hp=1,
                             config=FAST)
        # One output per class of the subset, no extra "rest" output.
        assert sub.model.config.num_classes == len(sub.classes) == 2

    def test_binary_submodel_detects_its_class(self, trained_tiny_vit,
                                               tiny_dataset):
        from repro.core.training import predict_probabilities
        from repro.pruning.pipeline import PruneConfig

        cfg = PruneConfig(probe_size=12, head_adapt_epochs=2,
                          stage_finetune_epochs=1, retrain_epochs=3,
                          backend="kl")
        sub = prune_submodel(trained_tiny_vit, tiny_dataset, [0], hp=1,
                             config=cfg)
        probs = predict_probabilities(sub.model, tiny_dataset.x_test)
        own = probs[tiny_dataset.y_test == 0, 1].mean()
        other = probs[tiny_dataset.y_test != 0, 1].mean()
        assert own > other  # scores its own class higher on average
