"""ED-ViT orchestrator tests: the full Fig.-1 pipeline at tiny scale, and
the built system served, killed and round-tripped like any planned fleet."""

import dataclasses
import time

import numpy as np
import pytest

from repro.core.edvit import EDVIT_RECIPE, EDViTConfig, build_edvit
from repro.edge.device import make_fleet
from repro.edge.simulator import simulate_inference
from repro.profiling import (module_param_count, module_size_mb,
                             paper_flops, param_bytes)
from repro.pruning.pipeline import PruneConfig
from repro.serving import BatchingConfig, ServerConfig
from repro.splitting.fusion import softmax_average_accuracy

MB = 2 ** 20

FAST_PRUNE = PruneConfig(probe_size=12, head_adapt_epochs=2,
                         stage_finetune_epochs=1, retrain_epochs=4,
                         backend="kl")

TRANSPORTS = ["inprocess", "multiprocess", "tcp"]


@pytest.fixture(scope="module")
def built_system(trained_tiny_vit, tiny_dataset):
    return build_edvit(
        trained_tiny_vit, tiny_dataset, make_fleet(2),
        EDViTConfig(num_devices=2, memory_budget_bytes=64 * MB,
                    prune=FAST_PRUNE, fusion_epochs=12, fusion_lr=3e-3,
                    seed=0))


class TestBuild:
    def test_submodel_count(self, built_system):
        assert len(built_system.models) == 2
        assert len(built_system.plan.submodels) == 2

    def test_partition_covers_classes(self, built_system):
        classes = sorted(c for g in built_system.plan.partition for c in g)
        assert classes == list(range(10))

    def test_plan_places_every_submodel(self, built_system):
        assert len(built_system.plan.mapping) == 2

    def test_plan_records_the_edvit_recipe(self, built_system):
        assert built_system.plan.build["recipe"] == EDVIT_RECIPE

    def test_plan_describes_the_pruned_modules(self, built_system):
        for sub, model in zip(built_system.plan.submodels,
                              built_system.models):
            assert sub.model_config == model.config.to_dict()
            assert sub.size_bytes == param_bytes(module_param_count(model))
            assert sub.flops_per_sample == paper_flops(model.config)
            assert sub.feature_dim == model.feature_dim()

    def test_accuracy_beats_chance(self, built_system, tiny_dataset):
        assert built_system.local_accuracy(tiny_dataset.x_test,
                                           tiny_dataset.y_test) > 0.3

    def test_softmax_average_works(self, built_system, tiny_dataset):
        acc = softmax_average_accuracy(built_system.models,
                                       built_system.plan.partition,
                                       tiny_dataset)
        assert 0.0 <= acc <= 1.0

    def test_predictions_shape(self, built_system, tiny_dataset):
        pred = built_system.local_fused_labels(tiny_dataset.x_test[:5])
        assert pred.shape == (5,)

    def test_total_size_within_budget(self, built_system):
        assert sum(module_size_mb(m) for m in built_system.models) <= 64

    def test_reporting_helpers(self, built_system):
        models = built_system.models
        assert len([module_size_mb(m) for m in models]) == 2
        assert all(paper_flops(m.config) > 0 for m in models)
        assert all(m.feature_dim() > 0 for m in models)


class TestDeploymentExport:
    def test_simulates_end_to_end(self, built_system):
        spec = built_system.plan.deployment_spec()
        result = simulate_inference(spec, num_samples=1)
        assert result.max_latency > 0
        assert spec.fusion_device.device_id == "fusion"

    def test_placement_follows_plan(self, built_system):
        spec = built_system.plan.deployment_spec()
        for model_id, device_id in spec.placement.items():
            assert device_id == built_system.plan.mapping[model_id]



def _server(system, transport, replan=False):
    system = dataclasses.replace(system, transport=transport)
    return system, system.make_server(
        ServerConfig(batching=BatchingConfig(max_batch_samples=16,
                                             max_wait_s=0.002),
                     worker_timeout_s=10.0),
        replan=replan)


def _degraded_labels(server, x, victim):
    """Kill ``victim`` and return the first degraded answer's labels."""
    server.cluster.kill_worker(victim)
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        future = server.submit(x)
        labels = future.result(timeout=15.0)
        if future.telemetry.degraded:
            assert future.telemetry.workers_down == (victim,)
            return labels
    raise AssertionError("kill never surfaced as degraded")


@pytest.mark.parametrize("transport", TRANSPORTS)
class TestServed:
    """The paper's system is served on Alg. 3's placement: served labels
    equal the in-process fused reference exactly."""

    def test_served_labels_equal_local_reference(self, built_system,
                                                 tiny_dataset, transport):
        x = tiny_dataset.x_test[:12]
        system, server = _server(built_system, transport)
        with server:
            labels = server.infer(x)
        np.testing.assert_array_equal(labels, system.local_fused_labels(x))

    def test_killed_worker_zero_fills_its_slot(self, built_system,
                                               tiny_dataset, transport):
        x = tiny_dataset.x_test[:12]
        system, server = _server(built_system, transport)
        slot = 1
        with server:
            server.infer(x)            # warm: every worker answered once
            labels = _degraded_labels(server, x, system.plan.model_ids[slot])
        np.testing.assert_array_equal(
            labels, system.local_fused_labels(x, zero_models=(slot,)))


def test_replanning_recovers_the_healthy_labels(built_system, tiny_dataset):
    # The killed sub-model is respawned on the surviving Pi; once it is
    # re-hosted the fused labels are the healthy ones again.
    x = tiny_dataset.x_test[:12]
    system, server = _server(built_system, "inprocess", replan=True)
    victim = system.plan.model_ids[0]
    with server:
        server.infer(x)
        server.cluster.kill_worker(victim)
        deadline = time.monotonic() + 10.0
        while "@" not in server.hosting()[victim] \
                and time.monotonic() < deadline:
            server.infer(x)
        labels = server.infer(x)
    assert "@" in server.hosting()[victim]
    np.testing.assert_array_equal(labels, system.local_fused_labels(x))


class TestSingleDevice:
    def test_n1_is_prune_only(self, trained_tiny_vit, tiny_dataset):
        system = build_edvit(
            trained_tiny_vit, tiny_dataset, make_fleet(1),
            EDViTConfig(num_devices=1, memory_budget_bytes=64 * MB,
                        prune=FAST_PRUNE, fusion_epochs=3, seed=0))
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
