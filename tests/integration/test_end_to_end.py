"""End-to-end integration: the full ED-ViT lifecycle across subsystems.

Covers train -> split -> prune -> assign -> fuse -> simulate -> emulate,
i.e. every arrow in Fig. 1 plus the deployment substrates.
"""

import numpy as np
import pytest

from repro.core.edvit import EDViTConfig, build_edvit
from repro.core.inference import evaluate
from repro.edge.device import make_fleet, raspberry_pi_4b
from repro.edge.simulator import simulate_inference
from repro.profiling import paper_flops
from repro.pruning.pipeline import PruneConfig
from repro.splitting.fusion import softmax_average_accuracy

MB = 2 ** 20

PRUNE = PruneConfig(probe_size=12, head_adapt_epochs=2,
                    stage_finetune_epochs=1, retrain_epochs=3, backend="kl")


@pytest.fixture(scope="module")
def system_n2(trained_tiny_vit, tiny_dataset):
    return build_edvit(
        trained_tiny_vit, tiny_dataset, make_fleet(2),
        EDViTConfig(num_devices=2, memory_budget_bytes=64 * MB, prune=PRUNE,
                    fusion_epochs=12, fusion_lr=3e-3, seed=0))


class TestAccuracyStory:
    """The paper's core accuracy claims, at reproduction scale."""

    def test_fused_accuracy_close_to_original(self, system_n2, tiny_dataset,
                                              trained_tiny_vit):
        original = evaluate(trained_tiny_vit, tiny_dataset.x_test,
                            tiny_dataset.y_test)
        fused = system_n2.local_accuracy(tiny_dataset.x_test,
                                         tiny_dataset.y_test)
        # ED-ViT claims comparable accuracy after split+prune; at this tiny
        # scale we accept a bounded drop from the unsplit original.
        assert fused > original - 0.25

    def test_fusion_mlp_beats_softmax_averaging(self, system_n2, tiny_dataset):
        # Table IV: the fusion MLP outperforms plain softmax averaging.
        averaged = softmax_average_accuracy(
            system_n2.models, system_n2.plan.partition, tiny_dataset)
        assert (system_n2.local_accuracy(tiny_dataset.x_test,
                                         tiny_dataset.y_test)
                >= averaged - 0.05)

    def test_submodels_competent_on_their_subsets(self, system_n2,
                                                  tiny_dataset):
        for sub, model in zip(system_n2.plan.submodels, system_n2.models):
            subset = tiny_dataset.subset_of_classes(list(sub.classes))
            acc = evaluate(model, subset.x_test, subset.y_test)
            assert acc > 1.5 / len(sub.classes)


class TestResourceStory:
    def test_total_memory_below_original(self, system_n2, trained_tiny_vit):
        from repro.profiling import module_size_mb

        total = sum(module_size_mb(model) for model in system_n2.models)
        assert total < 2 * module_size_mb(trained_tiny_vit)

    def test_submodel_flops_below_original(self, system_n2, trained_tiny_vit):
        original = paper_flops(trained_tiny_vit.config)
        assert all(paper_flops(model.config) < original
                   for model in system_n2.models)

    def test_simulated_latency_beats_original(self, system_n2,
                                              trained_tiny_vit):
        result = simulate_inference(system_n2.plan.deployment_spec(),
                                    num_samples=1)
        original = raspberry_pi_4b("ref").compute_seconds(
            paper_flops(trained_tiny_vit.config))
        assert result.max_latency < original


class TestProcessEmulation:
    def test_emulated_cluster_matches_local_predictions(self, system_n2,
                                                        tiny_dataset):
        """Serve the built sub-models from worker processes on their
        planned devices and verify the served prediction equals the local
        fused prediction."""
        x = tiny_dataset.x_test[:8]
        local = system_n2.local_fused_labels(x)
        with system_n2.make_server() as server:
            remote = server.infer(x)
            report = server.stats()
        np.testing.assert_array_equal(local, remote)
        assert report.completed == 1 and report.degraded_requests == 0


class TestDeviceCountSweep:
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_system_builds_and_beats_chance(self, trained_tiny_vit,
                                            tiny_dataset, n):
        fast = PruneConfig(probe_size=8, head_adapt_epochs=1,
                           stage_finetune_epochs=0, retrain_epochs=2,
                           backend="magnitude")
        system = build_edvit(
            trained_tiny_vit, tiny_dataset, make_fleet(n),
            EDViTConfig(num_devices=n, memory_budget_bytes=64 * MB,
                        prune=fast, fusion_epochs=8, fusion_lr=3e-3, seed=0))
        assert len(system.models) == n
        assert system.local_accuracy(tiny_dataset.x_test,
                                     tiny_dataset.y_test) > 0.15
