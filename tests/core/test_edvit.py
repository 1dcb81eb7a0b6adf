"""ED-ViT orchestrator tests: the full Fig.-1 pipeline at tiny scale.

The built system served, killed, replanned and round-tripped like any
planned fleet is tested with the baselines' in
``tests/planning/test_method_systems.py``."""

import pytest

from repro.core.edvit import EDVIT_RECIPE, EDViTConfig, build_edvit
from repro.edge.device import make_fleet
from repro.edge.simulator import simulate_inference
from repro.profiling import (module_param_count, module_size_mb,
                             paper_flops, param_bytes)
from repro.pruning.pipeline import PruneConfig
from repro.splitting.fusion import softmax_average_accuracy

MB = 2 ** 20


class TestBuild:
    def test_submodel_count(self, edvit_system):
        assert len(edvit_system.models) == 2
        assert len(edvit_system.plan.submodels) == 2

    def test_partition_covers_classes(self, edvit_system):
        classes = sorted(c for g in edvit_system.plan.partition for c in g)
        assert classes == list(range(10))

    def test_plan_places_every_submodel(self, edvit_system):
        assert len(edvit_system.plan.mapping) == 2

    def test_plan_records_the_edvit_recipe(self, edvit_system):
        assert edvit_system.plan.build["recipe"] == EDVIT_RECIPE

    def test_accuracy_beats_chance(self, edvit_system, tiny_dataset):
        assert edvit_system.local_accuracy(tiny_dataset.x_test,
                                           tiny_dataset.y_test) > 0.3

    def test_softmax_average_works(self, edvit_system, tiny_dataset):
        acc = softmax_average_accuracy(edvit_system.models,
                                       edvit_system.plan.partition,
                                       tiny_dataset)
        assert 0.0 <= acc <= 1.0

    def test_predictions_shape(self, edvit_system, tiny_dataset):
        pred = edvit_system.local_fused_labels(tiny_dataset.x_test[:5])
        assert pred.shape == (5,)

    def test_total_size_within_budget(self, edvit_system):
        assert sum(module_size_mb(m) for m in edvit_system.models) <= 64

    def test_reporting_helpers(self, edvit_system):
        models = edvit_system.models
        assert len([module_size_mb(m) for m in models]) == 2
        assert all(paper_flops(m.config) > 0 for m in models)
        assert all(m.feature_dim() > 0 for m in models)


class TestDeploymentExport:
    def test_simulates_end_to_end(self, edvit_system):
        spec = edvit_system.plan.deployment_spec()
        result = simulate_inference(spec, num_samples=1)
        assert result.max_latency > 0
        assert spec.fusion_device.device_id == "fusion"

    def test_placement_follows_plan(self, edvit_system):
        spec = edvit_system.plan.deployment_spec()
        for model_id, device_id in spec.placement.items():
            assert device_id == edvit_system.plan.mapping[model_id]


class TestSingleDevice:
    def test_n1_is_prune_only(self, trained_tiny_vit, tiny_dataset,
                              fast_prune):
        system = build_edvit(
            trained_tiny_vit, tiny_dataset, make_fleet(1),
            EDViTConfig(num_devices=1, memory_budget_bytes=64 * MB,
                        prune=fast_prune, fusion_epochs=3, seed=0))
        assert len(system.models) == 1
        assert system.models[0].config.num_classes == 10
        # Pruned: smaller than the original.
        assert (system.models[0].num_parameters()
                < trained_tiny_vit.num_parameters())


class TestSingletonGroups:
    def test_plan_describes_the_one_vs_rest_modules(self, trained_tiny_vit,
                                                    tiny_dataset):
        # N = number of classes: every group is one class, pruned into a
        # 2-way one-vs-rest module, and the plan sizes that module.
        fast = PruneConfig(probe_size=8, head_adapt_epochs=1,
                           stage_finetune_epochs=0, retrain_epochs=1,
                           backend="magnitude")
        system = build_edvit(
            trained_tiny_vit, tiny_dataset, make_fleet(10),
            EDViTConfig(num_devices=10, memory_budget_bytes=64 * MB,
                        prune=fast, fusion_epochs=1, seed=0))
        for sub, model in zip(system.plan.submodels, system.models):
            assert len(sub.classes) == 1
            assert model.config.num_classes == 2
            assert sub.size_bytes == param_bytes(module_param_count(model))
            assert sub.flops_per_sample == paper_flops(model.config)
