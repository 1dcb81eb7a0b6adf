"""Network-model tests, anchored to Section V-D's communication numbers."""

import pytest

from repro.edge.codec import get_codec
from repro.edge.network import (
    LinkModel,
    RAW_IMAGE_BYTES,
    StarTopology,
    TC_CAP_BPS,
    communication_reduction,
    tc_capped_link,
    uniform_star,
)

# The switch itself (Huawei S1720-52GWR) is gigabit.
GIGABIT_BPS = 1_000_000_000


def feature_bytes(dim):
    return get_codec("raw32").estimate_bytes(dim)


class TestPaperAnchors:
    def test_raw_image_is_150528_bytes(self):
        assert RAW_IMAGE_BYTES == 150528

    def test_feature_bytes_single_device(self):
        # ViT-Base pruned to half heads: d'=384 -> 1536 B (paper Section V-D).
        assert feature_bytes(384) == 1536

    def test_feature_bytes_ten_devices(self):
        # d'=128 -> 512 B.
        assert feature_bytes(128) == 512

    def test_294x_reduction_at_ten_devices(self):
        assert communication_reduction(feature_bytes(128)) == pytest.approx(294.0)

    def test_transfer_time_under_2mbps_is_milliseconds(self):
        # The paper reports a max per-device communication time of 5.86 ms;
        # 1536 B over 2 Mbps is 6.1 ms of serialization.
        t = tc_capped_link().transfer_seconds(feature_bytes(384))
        assert 0.004 < t < 0.008


class TestLinkModel:
    def test_zero_bytes_is_free(self):
        assert tc_capped_link().transfer_seconds(0) == 0.0

    def test_negative_bytes_raises(self):
        with pytest.raises(ValueError):
            tc_capped_link().transfer_seconds(-1)

    def test_serialization_time_linear(self):
        link = LinkModel(bandwidth_bps=1e6, overhead_seconds=0.0)
        assert link.transfer_seconds(1000) == pytest.approx(0.008)
        assert link.transfer_seconds(2000) == pytest.approx(0.016)

    def test_gigabit_much_faster_than_capped(self):
        payload = 10_000
        assert (LinkModel(GIGABIT_BPS).transfer_seconds(payload)
                < tc_capped_link().transfer_seconds(payload))

    def test_tc_cap_value(self):
        assert TC_CAP_BPS == 2_000_000
        assert tc_capped_link().bandwidth_bps == TC_CAP_BPS

    @pytest.mark.parametrize("bps", [0, -1, float("inf"), float("nan")])
    def test_bandwidth_must_be_a_finite_rate_above_zero(self, bps):
        # A zero-bandwidth link would fail every transfer with a
        # division by zero, long after the link was accepted.
        with pytest.raises(ValueError, match="bandwidth_bps"):
            LinkModel(bandwidth_bps=bps)

    @pytest.mark.parametrize("seconds", [-1e-3, float("inf"), float("nan")])
    def test_overhead_must_be_finite_and_not_negative(self, seconds):
        with pytest.raises(ValueError, match="overhead_seconds"):
            LinkModel(overhead_seconds=seconds)


class TestTopology:
    def test_uniform_star_links_all_devices(self):
        topo = uniform_star(["a", "b"])
        assert topo.transfer_seconds("a", 100) == topo.transfer_seconds("b", 100)

    def test_unknown_device_raises(self):
        topo = uniform_star(["a"])
        with pytest.raises(KeyError):
            topo.transfer_seconds("ghost", 10)

    def test_heterogeneous_links(self):
        topo = StarTopology(device_links={"fast": LinkModel(GIGABIT_BPS),
                                          "slow": tc_capped_link()})
        assert (topo.transfer_seconds("fast", 1000)
                < topo.transfer_seconds("slow", 1000))
