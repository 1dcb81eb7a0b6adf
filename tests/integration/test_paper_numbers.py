"""Paper-anchor regression tests: every headline number the reproduction
should land near, in one place — one class per paper table or figure
(Tables I-II, Figs. 4-6) plus the communication claim."""

import pytest

from repro.core.experiments import (
    communication_rows,
    latency_memory_curve,
    table1_rows,
    table2_rows,
)
from repro.models.vit import vit_base_config, vit_large_config, vit_small_config


@pytest.fixture(scope="module")
def fig4_rows():
    return latency_memory_curve(vit_base_config(num_classes=10), budget_mb=180)


class TestTable1Anchors:
    def test_all_rows(self):
        rows = {r["Model"]: r for r in table1_rows()}
        # (params M, mem MB) from Table I; latency anchored on ViT-Base.
        assert rows["ViT-Small"]["Params (M)"] == pytest.approx(22.1, abs=0.1)
        assert rows["ViT-Base"]["Params (M)"] == pytest.approx(86.6, abs=0.1)
        assert rows["ViT-Large"]["Params (M)"] == pytest.approx(304.4, abs=0.2)
        assert rows["ViT-Small"]["Mem Size (MB)"] == pytest.approx(83, abs=1)
        assert rows["ViT-Base"]["Mem Size (MB)"] == pytest.approx(327, abs=1)
        assert rows["ViT-Large"]["Mem Size (MB)"] == pytest.approx(1157, abs=2)


class TestTable2Anchors:
    def test_cifar_series_shape(self):
        row = next(r for r in table2_rows() if r["Dataset"] == "CIFAR-10")
        # Paper: 16.86 / 4.25 / 1.90 / 1.08 / 0.48 — we match within ~20%
        # at every point and exactly at N=2.
        assert row["N=2 (G)"] == pytest.approx(4.25, rel=0.02)
        assert row["N=3 (G)"] == pytest.approx(1.90, rel=0.2)
        assert row["N=5 (G)"] == pytest.approx(1.08, rel=0.2)
        assert row["N=10 (G)"] == pytest.approx(0.48, rel=0.25)


class TestFig4LatencyAnchors:
    def test_original_latency(self, fig4_rows):
        assert fig4_rows[0]["original_latency_s"] == pytest.approx(36.94,
                                                                   abs=0.01)

    def test_single_device_pruned_latency(self, fig4_rows):
        # Paper: 9.63 s for the pruned single-device deployment.
        assert fig4_rows[0]["latency_s"] == pytest.approx(9.63, rel=0.05)

    def test_ten_device_latency(self, fig4_rows):
        # Paper: 1.28 s (28.9x reduction).
        ten = next(r for r in fig4_rows if r["devices"] == 10)
        assert ten["latency_s"] == pytest.approx(1.28, rel=0.1)

    def test_speedup_ratios(self, fig4_rows):
        ten = next(r for r in fig4_rows if r["devices"] == 10)
        one = fig4_rows[0]
        assert ten["speedup_vs_original"] == pytest.approx(28.9, rel=0.1)
        assert one["speedup_vs_original"] == pytest.approx(3.84, rel=0.05)


class TestFig4MemoryAnchors:
    def test_ten_device_per_model_size(self, fig4_rows):
        ten = next(r for r in fig4_rows if r["devices"] == 10)
        assert ten["per_model_mb"] == pytest.approx(9.60, rel=0.02)

    def test_size_reduction_factor(self, fig4_rows):
        # Paper: up to 34.1x model-size reduction at N=10.
        ten = next(r for r in fig4_rows if r["devices"] == 10)
        assert 327.38 / ten["per_model_mb"] == pytest.approx(34.1, rel=0.03)

    def test_all_within_budget(self, fig4_rows):
        assert all(r["total_memory_mb"] <= 180 for r in fig4_rows)


class TestFig5AudioAnchors:
    def test_gtzan_latency_shape(self):
        rows = latency_memory_curve(
            vit_base_config(num_classes=10, in_channels=1), budget_mb=180)
        # Paper: original 32.16 s... but GTZAN uses the same ViT-Base (the
        # paper's 32.16 includes their audio pipeline); we check the
        # reduction *ratios* instead: max/min latencies scale ~3.37x/25.13x.
        ten = next(r for r in rows if r["devices"] == 10)
        one = rows[0]
        assert one["latency_s"] / ten["latency_s"] == pytest.approx(
            25.13 / 3.37, rel=0.15)

    def test_gtzan_n10_model_size(self):
        rows = latency_memory_curve(
            vit_base_config(num_classes=10, in_channels=1), budget_mb=180,
            device_counts=(10,))
        # Paper: 9.35 MB per sub-model.
        assert rows[0]["per_model_mb"] == pytest.approx(9.35, rel=0.03)


class TestFig6ModelSizeAnchors:
    def test_vit_small_n10(self):
        rows = latency_memory_curve(vit_small_config(num_classes=10),
                                    budget_mb=50, device_counts=(10,))
        # Paper: 2.58 MB (32.06x reduction).
        assert rows[0]["per_model_mb"] == pytest.approx(2.58, rel=0.12)

    def test_vit_large_n10_diverges(self):
        """The one pinned divergence.  Paper: 18.73 MB (61.77x reduction)
        per sub-model, which needs hp 14 (2 of 16 heads kept).  Algorithm
        1 stops at hp 13 as soon as the fleet fits the 600 MB budget
        (10 x 41.44 MiB); hp 14 would need a budget below 434.5 MB, so no
        reading of the paper's 600 MB reaches the paper's size."""
        (row,) = latency_memory_curve(vit_large_config(num_classes=10),
                                      budget_mb=600, device_counts=(10,))
        assert row["hps"] == (13,) * 10
        assert round(row["per_model_mb"], 2) == 41.44          # paper: 18.73
        assert round(1157 / row["per_model_mb"], 2) == 27.92   # paper: 61.77


class TestCommunicationAnchors:
    def test_section_vd_numbers(self):
        rows = {r["devices"]: r for r in communication_rows()}
        assert rows[1]["feature_bytes"] == 1536    # paper: 1536 B
        assert rows[10]["feature_bytes"] == 512    # paper: 512 B
        assert rows[10]["reduction_x"] == pytest.approx(294.0, abs=0.5)
        assert rows[1]["transfer_ms"] < 7          # paper: max 5.86 ms


class TestPlannedSchedule:
    """The served plan is the paper's: Algorithm 1's loop, raising every
    sub-model's hp together under the 180 MB budget, lands on the
    schedule the paper's ViT-Base sizes imply and on its latencies."""

    @pytest.mark.parametrize("devices, hp, latency_s", [
        (1, 6, 9.72),
        (2, 6, 9.72),
        (3, 8, 4.51),
        (5, 9, 2.67),
        (10, 10, 1.31),
    ])
    def test_vit_base(self, fig4_rows, devices, hp, latency_s):
        row = next(r for r in fig4_rows if r["devices"] == devices)
        assert row["hps"] == (hp,) * devices
        assert row["latency_s"] == pytest.approx(latency_s, rel=0.01)
