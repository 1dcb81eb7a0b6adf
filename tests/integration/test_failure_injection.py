"""Failure-injection tests: crashed devices degrade, never deadlock."""

import numpy as np
import pytest

from repro.core.edvit import EDViTConfig, build_edvit
from repro.edge.device import DeviceModel, make_fleet, raspberry_pi_4b
from repro.edge.simulator import DeploymentSpec, SubModelProfile, simulate_inference
from repro.pruning.pipeline import PruneConfig

MB = 2 ** 20


def make_spec(num_devices=3):
    devices = make_fleet(num_devices)
    profiles = {f"m{i}": SubModelProfile(f"m{i}", 1e9, 64)
                for i in range(num_devices)}
    placement = {f"m{i}": devices[i].device_id for i in range(num_devices)}
    return DeploymentSpec(devices=devices, placement=placement,
                          profiles=profiles,
                          fusion_device=raspberry_pi_4b("fusion"),
                          fusion_flops=1e6)


class TestSimulatorFailures:
    def test_no_failures_is_default(self):
        spec = make_spec()
        a = simulate_inference(spec, 1)
        b = simulate_inference(spec, 1, failed_devices=set())
        assert a.latencies == b.latencies

    def test_failed_device_does_not_stall(self):
        spec = make_spec()
        result = simulate_inference(spec, 2, failed_devices={"pi-1"})
        assert len(result.latencies) == 2
        assert all(np.isfinite(result.latencies))

    def test_failed_device_does_no_work(self):
        spec = make_spec()
        result = simulate_inference(spec, 1, failed_devices={"pi-0"})
        assert result.device_busy["pi-0"] == 0.0
        assert result.device_busy["pi-1"] > 0.0

    def test_all_devices_failed_still_completes(self):
        spec = make_spec(2)
        result = simulate_inference(spec, 1,
                                    failed_devices={"pi-0", "pi-1"})
        # Only the fusion compute remains on the critical path.
        assert result.latencies[0] == pytest.approx(
            raspberry_pi_4b("fusion").compute_seconds(1e6), rel=1e-6)

    def test_unknown_failed_device_raises(self):
        with pytest.raises(KeyError):
            simulate_inference(make_spec(), 1, failed_devices={"ghost"})

    def test_failure_can_shorten_critical_path(self):
        spec = make_spec(2)
        spec.profiles["m1"] = SubModelProfile("m1", 50e9, 64)  # the slow one
        healthy = simulate_inference(spec, 1).latencies[0]
        degraded = simulate_inference(spec, 1,
                                      failed_devices={"pi-1"}).latencies[0]
        assert degraded < healthy


class TestFusionZeroFill:
    @pytest.fixture(scope="class")
    def system(self, trained_tiny_vit, tiny_dataset):
        return build_edvit(
            trained_tiny_vit, tiny_dataset, make_fleet(2),
            EDViTConfig(num_devices=2, memory_budget_bytes=64 * MB,
                        prune=PruneConfig(probe_size=8, head_adapt_epochs=1,
                                          stage_finetune_epochs=0,
                                          retrain_epochs=2,
                                          backend="magnitude"),
                        fusion_epochs=8, fusion_lr=3e-3, seed=0))

    def test_prediction_shape_under_failure(self, system, tiny_dataset):
        pred = system.local_fused_labels(tiny_dataset.x_test[:6],
                                         zero_models=(0,))
        assert pred.shape == (6,)

    def test_accuracy_degrades_not_collapses(self, system, tiny_dataset):
        x, y = tiny_dataset.x_test, tiny_dataset.y_test
        healthy = system.local_accuracy(x, y)
        degraded = system.local_accuracy(x, y, zero_models=(0,))
        assert degraded <= healthy + 0.05
        # Losing one of two sub-models should still leave signal from the
        # surviving half of the class space.
        assert degraded > 0.05

    def test_all_failed_is_prior_prediction(self, system, tiny_dataset):
        pred = system.local_fused_labels(tiny_dataset.x_test[:6],
                                         zero_models=(0, 1))
        # Zero features -> a constant fusion output -> one constant class.
        assert len(set(pred.tolist())) == 1

    def test_out_of_range_failed_index_raises(self, system, tiny_dataset):
        with pytest.raises(IndexError):
            system.local_fused_labels(tiny_dataset.x_test[:2],
                                      zero_models=(7,))
