"""Vectorized star-topology scorer: equality with the reference loop,
arrival schedules, and errors."""

import numpy as np
import pytest

from repro.edge.device import DeviceModel
from repro.edge.simulator import (
    ENGINES,
    DeploymentSpec,
    SubModelProfile,
    simulate_inference,
)


def build_spec(n_devices=4, models_per_device=1, seed=7) -> DeploymentSpec:
    rng = np.random.default_rng(seed)
    devices = [DeviceModel(f"d{i}", macs_per_second=float(rng.uniform(5e8, 2e9)))
               for i in range(n_devices)]
    placement, profiles = {}, {}
    for i in range(n_devices):
        for j in range(models_per_device):
            mid = f"m{i}_{j}"
            placement[mid] = f"d{i}"
            profiles[mid] = SubModelProfile(
                mid, flops_per_sample=float(rng.uniform(1e7, 5e8)),
                feature_dim=int(rng.integers(32, 256)))
    return DeploymentSpec(devices=devices, placement=placement,
                          profiles=profiles,
                          fusion_device=DeviceModel("fusion"),
                          fusion_flops=1e8)


class TestDispatch:
    def test_unknown_engine_rejected(self):
        for engine in ("warp", "auto"):
            with pytest.raises(ValueError, match="unknown engine"):
                simulate_inference(build_spec(), engine=engine)
        assert ENGINES == ("event", "vector")


class TestExactEquivalence:
    @pytest.mark.parametrize("n_devices, models_per_device, kwargs", [
        (5, 2, dict(num_samples=1)),
        (5, 2, dict(num_samples=8)),
        (5, 2, dict(num_samples=8, arrival_interval=0.005)),
        (5, 2, dict(arrival_times=[0.0, 0.0, 0.001, 0.02, 0.02, 0.5])),
        # The fleet scale the capacity sweep scores.
        (1000, 1, dict(num_samples=64, arrival_interval=0.001)),
    ])
    def test_engines_bit_identical(self, n_devices, models_per_device,
                                   kwargs):
        spec = build_spec(n_devices, models_per_device)
        assert simulate_inference(spec, engine="vector", **kwargs) == \
            simulate_inference(spec, engine="event", **kwargs)

    def test_failed_devices_bit_identical(self):
        spec = build_spec(n_devices=6)
        for failed in ({"d0"}, {"d0", "d4"},
                       {f"d{i}" for i in range(6)}):
            kwargs = dict(num_samples=5, arrival_interval=0.002,
                          failed_devices=failed)
            assert simulate_inference(spec, engine="vector", **kwargs) == \
                simulate_inference(spec, engine="event", **kwargs)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_unknown_placement_device_raises(self, engine):
        spec = build_spec(n_devices=2)
        spec.placement["ghost"] = "nope"
        with pytest.raises(KeyError):
            simulate_inference(spec, engine=engine)


class TestArrivalTimes:
    def test_trace_drives_the_schedule(self):
        spec = build_spec(n_devices=2)
        arrivals = [0.0, 1.0, 5.0]
        result = simulate_inference(spec, arrival_times=arrivals)
        assert len(result.latencies) == 3
        # A widely-spaced trace cannot queue: every sample sees the same
        # unloaded pipeline, so all latencies are identical.
        assert result.latencies[1] == result.latencies[2]

    def test_zero_interval_issues_every_sample_at_once(self):
        spec = build_spec(n_devices=2)
        batch = simulate_inference(spec, num_samples=3, arrival_interval=0.0)
        trace = simulate_inference(spec, arrival_times=[0.0, 0.0, 0.0])
        assert batch.latencies == trace.latencies
        assert batch.makespan == trace.makespan == max(batch.latencies)

    def test_rejects_both_interval_and_times(self):
        with pytest.raises(ValueError, match="not both"):
            simulate_inference(build_spec(), arrival_interval=0.1,
                               arrival_times=[0.0])

    @pytest.mark.parametrize("interval", [-1.0, float("nan"),
                                          float("inf")])
    def test_rejects_invalid_intervals(self, interval):
        with pytest.raises(ValueError, match="arrival_interval"):
            simulate_inference(build_spec(), num_samples=3,
                               arrival_interval=interval)

    @pytest.mark.parametrize("times", [[], [0.5, 0.1], [-1.0, 0.0],
                                       [0.0, float("nan")],
                                       [0.0, float("inf")]])
    def test_rejects_invalid_traces(self, times):
        with pytest.raises(ValueError):
            simulate_inference(build_spec(), arrival_times=times)
