"""Device-model tests, anchored to the Table I calibration."""

import pytest

from repro.edge.device import (
    JOULES_PER_MAC,
    DeviceModel,
    PI4B_MACS_PER_SECOND,
    make_fleet,
    raspberry_pi_4b,
)
from repro.models.vit import vit_base_config, vit_large_config, vit_small_config
from repro.profiling import paper_flops


class TestCalibration:
    def test_vit_base_latency_matches_table1_exactly(self):
        pi = raspberry_pi_4b("pi")
        latency = pi.compute_seconds(paper_flops(vit_base_config()))
        assert latency == pytest.approx(36.94, abs=0.01)

    def test_vit_small_latency_within_2pct(self):
        pi = raspberry_pi_4b("pi")
        latency = pi.compute_seconds(paper_flops(vit_small_config()))
        assert latency == pytest.approx(9.628, rel=0.02)

    def test_vit_large_latency_within_10pct(self):
        pi = raspberry_pi_4b("pi")
        latency = pi.compute_seconds(paper_flops(vit_large_config()))
        assert latency == pytest.approx(118.828, rel=0.10)

    def test_energy_scale_plausible_for_pi(self):
        # A Pi-4B draws a few watts; ViT-Base at ~37 s should cost O(100) J.
        assert 10 < paper_flops(vit_base_config()) * JOULES_PER_MAC < 1000

    def test_throughput_is_sub_gigaflop(self):
        # A Pi 4B runs large transformers at well under 1 GMAC/s.
        assert 0.1e9 < PI4B_MACS_PER_SECOND < 1.0e9


class TestDeviceModel:
    def test_compute_seconds_linear(self):
        dev = DeviceModel("d", macs_per_second=1e9)
        assert dev.compute_seconds(2e9) == pytest.approx(2.0)

    def test_zero_flops_zero_time(self):
        assert raspberry_pi_4b("pi").compute_seconds(0) == 0.0

    def test_negative_flops_raises(self):
        with pytest.raises(ValueError):
            raspberry_pi_4b("pi").compute_seconds(-1)

    def test_device_rejects_nonpositive_memory(self):
        with pytest.raises(ValueError):
            DeviceModel("x", memory_bytes=0, energy_flops=1.0)

    def test_device_rejects_nonpositive_energy(self):
        with pytest.raises(ValueError):
            DeviceModel("x", memory_bytes=1, energy_flops=0.0)

    @pytest.mark.parametrize("rate", [0.0, -1e12, float("inf"),
                                      float("nan")])
    def test_device_rejects_a_rate_not_finite_and_positive(self, rate):
        with pytest.raises(ValueError, match="macs_per_second"):
            DeviceModel("x", macs_per_second=rate)


class TestFleets:
    def test_make_fleet_ids_unique(self):
        fleet = make_fleet(5)
        assert len({d.device_id for d in fleet}) == 5

    def test_make_fleet_overrides(self):
        fleet = make_fleet(2, macs_per_second=123.0)
        assert all(d.macs_per_second == 123.0 for d in fleet)
