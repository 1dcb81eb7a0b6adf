"""Property tests of the edge substrate: simulator and network invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.edge.device import DeviceModel
from repro.edge.codec import get_codec
from repro.edge.network import LinkModel
from repro.edge.simulator import (
    DeploymentSpec,
    SubModelProfile,
    simulate_inference,
)


def build_spec(flops_list, feature_dim=64, fusion_flops=1e5):
    devices = [DeviceModel(device_id=f"d{i}", macs_per_second=1e9)
               for i in range(len(flops_list))]
    profiles = {f"m{i}": SubModelProfile(f"m{i}", f, feature_dim)
                for i, f in enumerate(flops_list)}
    placement = {f"m{i}": f"d{i}" for i in range(len(flops_list))}
    return DeploymentSpec(devices=devices, placement=placement,
                          profiles=profiles,
                          fusion_device=DeviceModel("fusion",
                                                    macs_per_second=1e9),
                          fusion_flops=fusion_flops)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=1e6, max_value=1e10), min_size=1,
                max_size=6))
def test_latency_at_least_slowest_compute(flops_list):
    spec = build_spec(flops_list)
    result = simulate_inference(spec, num_samples=1)
    slowest = max(flops_list) / 1e9
    assert result.latencies[0] >= slowest


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=1e6, max_value=1e9), min_size=1,
                max_size=4),
       st.integers(min_value=1, max_value=5))
def test_latencies_nonnegative_and_complete(flops_list, samples):
    result = simulate_inference(build_spec(flops_list), num_samples=samples)
    assert len(result.latencies) == samples
    assert all(lat > 0 for lat in result.latencies)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=1e6, max_value=1e9), min_size=1,
                max_size=4))
def test_adding_a_device_never_helps_single_sample(flops_list):
    """With one sub-model per device, per-sample latency is set by the
    slowest chain; removing the fastest device cannot reduce latency."""
    full = simulate_inference(build_spec(flops_list), 1).latencies[0]
    dominant = simulate_inference(build_spec([max(flops_list)]), 1).latencies[0]
    assert full >= dominant - 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**7),
       st.integers(min_value=0, max_value=10**7))
def test_transfer_time_monotone_in_bytes(a, b):
    link = LinkModel(bandwidth_bps=2e6)
    small, large = sorted((a, b))
    assert link.transfer_seconds(small) <= link.transfer_seconds(large)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=4096))
def test_feature_bytes_is_4x_dim(dim):
    assert get_codec("raw32").estimate_bytes(dim) == 4 * dim


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=1e5, max_value=1e12),
       st.floats(min_value=1.1, max_value=10.0))
def test_faster_device_strictly_faster(flops, speedup):
    slow = DeviceModel("slow", macs_per_second=1e9)
    fast = DeviceModel("fast", macs_per_second=1e9 * speedup)
    assert fast.compute_seconds(flops) < slow.compute_seconds(flops)
