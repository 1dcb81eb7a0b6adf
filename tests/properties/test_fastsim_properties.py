"""Property tests: the vectorized scorer equals the per-request reference
loop on randomized fleets and arrival traces."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.edge.device import DeviceModel
from repro.edge.simulator import (
    DeploymentSpec,
    SubModelProfile,
    simulate_inference,
)


def build_spec(flops_list, feature_dims, speeds):
    devices = [DeviceModel(f"d{i}", macs_per_second=speed * 1e9)
               for i, speed in enumerate(speeds)]
    profiles = {}
    placement = {}
    for i, (flops, dim) in enumerate(zip(flops_list, feature_dims)):
        profiles[f"m{i}"] = SubModelProfile(f"m{i}", flops, dim)
        # Wrap-around placement: some devices host 2 sub-models when there
        # are more models than devices, exercising multi-slot lanes.
        placement[f"m{i}"] = f"d{i % len(devices)}"
    return DeploymentSpec(devices=devices, placement=placement,
                          profiles=profiles,
                          fusion_device=DeviceModel("fusion",
                                                    macs_per_second=2e9),
                          fusion_flops=5e6)


fleet_strategy = st.integers(min_value=1, max_value=5).flatmap(
    lambda n_dev: st.tuples(
        st.lists(st.floats(min_value=1e5, max_value=5e8),
                 min_size=n_dev, max_size=2 * n_dev),
        st.lists(st.integers(min_value=8, max_value=512),
                 min_size=2 * n_dev, max_size=2 * n_dev),
        st.lists(st.floats(min_value=0.2, max_value=4.0),
                 min_size=n_dev, max_size=n_dev)))


def assert_engines_agree(spec, **kwargs):
    assert simulate_inference(spec, engine="vector", **kwargs) == \
        simulate_inference(spec, engine="event", **kwargs)


@settings(max_examples=40, deadline=None)
@given(fleet_strategy,
       st.integers(min_value=1, max_value=8),
       st.floats(min_value=0.0, max_value=0.05))
def test_vector_matches_event_on_uniform_streams(fleet, samples, interval):
    flops, dims, speeds = fleet
    spec = build_spec(flops, dims, speeds)
    assert_engines_agree(spec, num_samples=samples,
                         arrival_interval=interval)


@settings(max_examples=40, deadline=None)
@given(fleet_strategy,
       st.lists(st.floats(min_value=0.0, max_value=2.0), min_size=1,
                max_size=12))
def test_vector_matches_event_on_random_traces(fleet, raw_times):
    flops, dims, speeds = fleet
    spec = build_spec(flops, dims, speeds)
    assert_engines_agree(spec, arrival_times=sorted(raw_times))


@settings(max_examples=25, deadline=None)
@given(fleet_strategy, st.data())
def test_vector_matches_event_with_failures(fleet, data):
    flops, dims, speeds = fleet
    spec = build_spec(flops, dims, speeds)
    ids = [d.device_id for d in spec.devices]
    failed = set(data.draw(st.lists(st.sampled_from(ids), unique=True)))
    assert_engines_agree(spec, num_samples=3, arrival_interval=0.001,
                         failed_devices=failed)
