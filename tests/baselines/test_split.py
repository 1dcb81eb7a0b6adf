"""Split-CNN (NNFacet-style) and Split-SNN (EC-SNN-style) baseline tests.

Both come from one builder and are planned systems; serving, replanning
and the plan round trip are tested with ED-ViT's in
``tests/planning/test_method_systems.py``."""

import pytest

from repro.baselines import SplitConfig, build_split
from repro.edge.device import make_fleet
from repro.splitting.fusion import softmax_average_accuracy


@pytest.fixture(params=["cnn", "snn"])
def method(request, trained_tiny_vgg, trained_tiny_snn, split_cnn_system,
           split_snn_system):
    """(trained backbone, built system, expected recipe, accuracy floor)."""
    if request.param == "cnn":
        return trained_tiny_vgg, split_cnn_system, "split-cnn", 0.15
    return trained_tiny_snn, split_snn_system, "split-snn", 0.12


class TestBuildSplit:
    def test_submodel_count(self, method):
        _, system, _, _ = method
        assert len(system.models) == 2
        assert len(system.plan.submodels) == 2

    def test_partition_covers_all_classes(self, method):
        _, system, _, _ = method
        classes = sorted(c for g in system.plan.partition for c in g)
        assert classes == list(range(10))

    def test_plan_places_every_submodel(self, method):
        _, system, _, _ = method
        assert sorted(system.plan.mapping) == system.plan.model_ids
        assert set(system.plan.mapping.values()) <= set(
            system.plan.device_ids)

    def test_plan_records_the_recipe(self, method):
        _, system, recipe, _ = method
        assert system.plan.build["recipe"] == recipe

    def test_submodels_pruned(self, method):
        base, system, _, _ = method
        for model in system.models:
            assert model.num_parameters() < base.num_parameters()

    def test_submodel_heads_match_subsets(self, method):
        _, system, _, _ = method
        for model, classes in zip(system.models, system.plan.partition):
            assert model.config.num_classes == len(classes)

    def test_accuracy_beats_chance(self, method, tiny_dataset):
        _, system, _, floor = method
        assert system.local_accuracy(tiny_dataset.x_test,
                                     tiny_dataset.y_test) > floor

    def test_softmax_average_in_range(self, method, tiny_dataset):
        _, system, _, _ = method
        acc = softmax_average_accuracy(system.models, system.plan.partition,
                                       tiny_dataset)
        assert 0.0 <= acc <= 1.0


def test_cnn_softmax_average_beats_chance(split_cnn_system, tiny_dataset):
    acc = softmax_average_accuracy(split_cnn_system.models,
                                   split_cnn_system.plan.partition,
                                   tiny_dataset)
    assert acc > 0.15


def test_keep_ratio_one_skips_pruning(trained_tiny_vgg, tiny_dataset):
    system = build_split(trained_tiny_vgg, tiny_dataset, make_fleet(2),
                         SplitConfig(num_devices=2, keep_ratio=1.0,
                                     adapt_epochs=0, finetune_epochs=0,
                                     fusion_epochs=1, seed=0))
    # Head layers differ but backbones keep their widths.
    convs_base = [m.out_channels for m in trained_tiny_vgg.features
                  if hasattr(m, "out_channels")]
    convs_sub = [m.out_channels for m in system.models[0].features
                 if hasattr(m, "out_channels")]
    assert convs_base == convs_sub


def test_snn_channels_halved(split_snn_system):
    for model in split_snn_system.models:
        assert model.config.scaled_channels() == (4, 8)


def test_spiking_dynamics_preserved_after_split(split_snn_system):
    # Sub-models remain rate-coded SNNs with the original time steps.
    for model in split_snn_system.models:
        assert model.config.time_steps == 3
