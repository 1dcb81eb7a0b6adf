"""Distributed-inference simulator tests."""

import pytest

from repro.edge.device import DeviceModel, make_fleet, raspberry_pi_4b
from repro.edge.network import LinkModel, StarTopology
from repro.edge.simulator import (
    ENGINES,
    DeploymentSpec,
    SubModelProfile,
    simulate_inference,
)


def make_spec(num_devices=2, flops=1e9, feature_dim=128, fusion_flops=1e6,
              link_bps=2e6):
    devices = make_fleet(num_devices)
    profiles = {}
    placement = {}
    for i in range(num_devices):
        mid = f"m{i}"
        profiles[mid] = SubModelProfile(model_id=mid, flops_per_sample=flops,
                                        feature_dim=feature_dim)
        placement[mid] = devices[i].device_id
    ids = [d.device_id for d in devices] + ["pi-fusion"]
    topo = StarTopology(device_links={
        d: LinkModel(bandwidth_bps=link_bps, overhead_seconds=0.0)
        for d in ids})
    return DeploymentSpec(devices=devices, placement=placement,
                          profiles=profiles,
                          fusion_device=raspberry_pi_4b("pi-fusion"),
                          fusion_flops=fusion_flops, topology=topo)


class TestSingleSample:
    def test_latency_is_critical_path(self):
        spec = make_spec(num_devices=2, flops=1e9)
        result = simulate_inference(spec, num_samples=1)
        device = spec.devices[0]
        expected = (device.compute_seconds(1e9)
                    + 128 * 4 * 8 / 2e6
                    + spec.fusion_device.compute_seconds(1e6))
        assert result.latencies[0] == pytest.approx(expected, rel=1e-6)

    def test_parallel_devices_do_not_add_up(self):
        one = simulate_inference(make_spec(num_devices=1), 1).latencies[0]
        ten = simulate_inference(make_spec(num_devices=10), 1).latencies[0]
        assert ten == pytest.approx(one, rel=1e-6)

    def test_slower_submodel_dominates(self):
        spec = make_spec(num_devices=2)
        spec.profiles["m1"] = SubModelProfile("m1", flops_per_sample=4e9,
                                              feature_dim=128)
        result = simulate_inference(spec, 1)
        assert result.latencies[0] > simulate_inference(
            make_spec(num_devices=2), 1).latencies[0]

    def test_two_submodels_one_device_serialize(self):
        devices = make_fleet(1)
        profiles = {f"m{i}": SubModelProfile(f"m{i}", 1e9, 64)
                    for i in range(2)}
        placement = {"m0": devices[0].device_id, "m1": devices[0].device_id}
        spec = DeploymentSpec(devices=devices, placement=placement,
                              profiles=profiles,
                              fusion_device=raspberry_pi_4b("f"),
                              fusion_flops=0.0)
        result = simulate_inference(spec, 1)
        compute = devices[0].compute_seconds(1e9)
        assert result.latencies[0] >= 2 * compute

    def test_unknown_placement_device_raises(self):
        spec = make_spec()
        spec.placement["m0"] = "ghost"
        with pytest.raises(KeyError):
            simulate_inference(spec, 1)

    def test_zero_samples_raises(self):
        with pytest.raises(ValueError):
            simulate_inference(make_spec(), 0)


class TestStreams:
    def test_batch_mode_pipelines_through_fifo(self):
        result = simulate_inference(make_spec(num_devices=1, flops=1e9), 5)
        # Sample k queues behind k earlier computations.
        assert result.latencies[-1] > result.latencies[0]

    def test_open_stream_with_slack_keeps_latency_flat(self):
        spec = make_spec(num_devices=1, flops=1e8)
        compute = spec.devices[0].compute_seconds(1e8)
        result = simulate_inference(spec, 5,
                                    arrival_interval=compute * 3)
        assert result.latencies[-1] == pytest.approx(result.latencies[0],
                                                     rel=1e-6)

    def test_throughput_reported(self):
        result = simulate_inference(make_spec(), 4, arrival_interval=1.0)
        assert result.throughput > 0

    def test_makespan_at_least_max_latency(self):
        result = simulate_inference(make_spec(), 3)
        assert result.makespan >= result.max_latency

    def test_busy_accounting_scales_with_samples(self):
        spec = make_spec(num_devices=1, flops=1e9)
        r1 = simulate_inference(spec, 1)
        r3 = simulate_inference(make_spec(num_devices=1, flops=1e9), 3)
        d = spec.devices[0].device_id
        assert r3.device_busy[d] == pytest.approx(3 * r1.device_busy[d])


def timed_deployment(placed, fusion_s=0.0, idle=()):
    """``placed`` maps model id -> (device id, compute s, transfer s): the
    devices run 1 MAC/s, so a model's MACs are its compute seconds, and
    each link carries its 16-float raw32 features in the transfer time
    (one link per device, so co-hosted models share a transfer time)."""
    device_ids = list(dict.fromkeys(d for d, _, _ in placed.values()))
    transfer = {d: t for d, _, t in placed.values()}
    return DeploymentSpec(
        devices=[DeviceModel(d, macs_per_second=1.0)
                 for d in [*device_ids, *idle]],
        placement={m: d for m, (d, _, _) in placed.items()},
        profiles={m: SubModelProfile(m, c, 16)
                  for m, (_, c, _) in placed.items()},
        fusion_device=DeviceModel("fusion", macs_per_second=1.0),
        fusion_flops=fusion_s,
        topology=StarTopology({
            d: LinkModel(bandwidth_bps=8 * 4 * 16 / transfer[d],
                         overhead_seconds=0.0) for d in device_ids}))


@pytest.mark.parametrize("engine", ENGINES)
class TestTheModel:
    """The FIFO model in closed form, on both evaluations of it."""

    def test_a_cpu_slower_than_the_gap_queues(self, engine):
        spec = timed_deployment({"m": ("d", 0.3, 0.1)})
        result = simulate_inference(spec, 4, arrival_interval=0.2,
                                    engine=engine)
        # Sample k leaves the CPU at 0.3 (k + 1), the link 0.1 later.
        assert result.latencies == pytest.approx([0.4, 0.5, 0.6, 0.7])

    def test_a_link_slower_than_the_gap_queues(self, engine):
        spec = timed_deployment({"m": ("d", 0.1, 0.3)})
        result = simulate_inference(spec, 4, arrival_interval=0.2,
                                    engine=engine)
        # The link is free again at 0.4 + 0.3 k.
        assert result.latencies == pytest.approx([0.4, 0.5, 0.6, 0.7])
        assert result.makespan == pytest.approx(1.3)

    def test_co_hosted_models_share_the_cpu_and_the_link(self, engine):
        spec = timed_deployment({"a": ("d", 0.1, 0.2),
                                 "b": ("d", 0.1, 0.2)})
        result = simulate_inference(spec, 2, engine=engine)
        # Sample 0: c + max(c, t) + t; sample 1 waits for both sends.
        assert result.latencies == pytest.approx([0.5, 0.9])

    def test_the_barrier_waits_for_the_last_delivery(self, engine):
        spec = timed_deployment({"fast": ("d0", 0.1, 0.1),
                                 "slow": ("d1", 0.3, 0.2)}, fusion_s=0.05)
        result = simulate_inference(spec, 1, engine=engine)
        assert result.latencies == pytest.approx([0.55])

    def test_the_fusion_cpu_queues_in_arrival_order(self, engine):
        spec = timed_deployment({"m": ("d", 0.05, 0.05)}, fusion_s=0.3)
        result = simulate_inference(spec, 3, arrival_interval=0.1,
                                    engine=engine)
        assert result.latencies == pytest.approx([0.4, 0.6, 0.8])
        assert result.device_busy["fusion"] == pytest.approx(0.9)

    def test_a_failed_device_delivers_nothing(self, engine):
        spec = timed_deployment({"fast": ("d0", 0.1, 0.1),
                                 "slow": ("d1", 0.3, 0.2)})
        result = simulate_inference(spec, 2, failed_devices={"d1"},
                                    engine=engine)
        assert result.latencies == pytest.approx([0.2, 0.3])
        assert result.device_busy["d1"] == result.link_busy["d1"] == 0.0

    def test_with_no_live_device_samples_go_straight_to_fusion(self, engine):
        spec = timed_deployment({"m": ("d", 0.1, 0.1)}, fusion_s=0.05)
        result = simulate_inference(spec, 2, arrival_interval=1.0,
                                    failed_devices={"d"}, engine=engine)
        assert result.latencies == pytest.approx([0.05, 0.05])
        assert result.makespan == pytest.approx(1.05)

    def test_a_device_without_models_stays_idle(self, engine):
        spec = timed_deployment({"m": ("d", 0.1, 0.1)}, idle=("spare",))
        result = simulate_inference(spec, 3, engine=engine)
        assert result.device_busy["spare"] == result.link_busy["spare"] == 0.0

    def test_busy_totals_count_every_service(self, engine):
        spec = timed_deployment({"a": ("d", 0.1, 0.3),
                                 "b": ("d", 0.2, 0.3)}, fusion_s=0.01)
        result = simulate_inference(spec, 5, arrival_interval=0.05,
                                    engine=engine)
        assert result.device_busy == pytest.approx(
            {"d": 1.5, "fusion": 0.05})
        assert result.link_busy == pytest.approx({"d": 3.0})


class TestPaperLatencyShape:
    def test_fig4_endpoint_ten_devices(self):
        """ViT-Base split across 10 devices lands near the paper's 1.28 s."""
        from repro.core.experiments import latency_memory_curve
        from repro.models.vit import vit_base_config

        rows = latency_memory_curve(vit_base_config(num_classes=10),
                                    budget_mb=180, device_counts=(10,))
        assert rows[0]["latency_s"] == pytest.approx(1.28, rel=0.15)

    def test_single_device_latency(self):
        from repro.models.vit import vit_base_config
        from repro.profiling import paper_flops

        latency = raspberry_pi_4b("pi").compute_seconds(
            paper_flops(vit_base_config()))
        assert latency == pytest.approx(36.94, abs=0.01)


class TestReports:
    def test_utilization_bounded(self):
        from repro.edge.simulator import utilization_report

        result = simulate_inference(make_spec(num_devices=2), 4)
        util = utilization_report(result)
        assert all(0.0 <= u <= 1.0 for u in util.values())
        # Workers computed for a nonzero fraction of the makespan.
        assert util[make_spec().devices[0].device_id] > 0

    def test_energy_proportional_to_work(self):
        from repro.edge.simulator import energy_report

        spec = make_spec(num_devices=1, flops=1e9)
        r1 = simulate_inference(spec, 1)
        spec3 = make_spec(num_devices=1, flops=1e9)
        r3 = simulate_inference(spec3, 3)
        d = spec.devices[0].device_id
        e1 = energy_report(spec, r1)[d]
        e3 = energy_report(spec3, r3)[d]
        assert e3 == pytest.approx(3 * e1, rel=1e-6)

    def test_energy_includes_fusion_device(self):
        from repro.edge.simulator import energy_report

        spec = make_spec()
        result = simulate_inference(spec, 1)
        report = energy_report(spec, result)
        assert "pi-fusion" in report
        assert report["pi-fusion"] >= 0

    def test_fullscale_energy_plausible(self):
        """ViT-Base on a Pi: tens-to-hundreds of joules per inference."""
        from repro.edge.simulator import energy_report
        from repro.models.vit import vit_base_config
        from repro.profiling import paper_flops

        flops = float(paper_flops(vit_base_config()))
        devices = make_fleet(1)
        profiles = {"m0": SubModelProfile("m0", flops, 768)}
        spec = DeploymentSpec(devices=devices,
                              placement={"m0": devices[0].device_id},
                              profiles=profiles,
                              fusion_device=raspberry_pi_4b("pi-fusion"),
                              fusion_flops=0.0)
        result = simulate_inference(spec, 1)
        joules = energy_report(spec, result)[devices[0].device_id]
        assert 10 < joules < 1000
