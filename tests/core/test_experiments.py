"""Experiment-harness tests: the analytic table/figure generators."""

import pytest

from repro.core.experiments import (
    PAPER_BUDGETS_MB,
    budget_bytes,
    communication_rows,
    latency_memory_curve,
    split_plan,
    table1_rows,
    table2_rows,
)
from repro.models.vit import vit_base_config, vit_small_config


class TestTable1:
    def test_three_rows(self):
        rows = table1_rows()
        assert [r["Model"] for r in rows] == ["ViT-Small", "ViT-Base",
                                              "ViT-Large"]

    def test_base_latency_anchor(self):
        rows = table1_rows()
        base = next(r for r in rows if r["Model"] == "ViT-Base")
        assert base["Latency (ms)"] == pytest.approx(36940, abs=20)

    def test_params_match_paper(self):
        rows = table1_rows()
        assert rows[0]["Params (M)"] == pytest.approx(22.1, abs=0.1)
        assert rows[2]["Params (M)"] == pytest.approx(304.4, abs=0.2)


class TestTable2:
    def test_flops_decrease_with_devices(self):
        rows = table2_rows()
        for row in rows:
            values = [row["Original (G)"], row["N=2 (G)"], row["N=3 (G)"],
                      row["N=5 (G)"], row["N=10 (G)"]]
            assert values == sorted(values, reverse=True)

    def test_n2_matches_vit_small(self):
        rows = table2_rows()
        cifar = next(r for r in rows if r["Dataset"] == "CIFAR-10")
        assert cifar["N=2 (G)"] == pytest.approx(4.25, abs=0.05)

    def test_gtzan_slightly_cheaper(self):
        rows = table2_rows()
        cifar = next(r for r in rows if r["Dataset"] == "CIFAR-10")
        gtzan = next(r for r in rows if r["Dataset"] == "GTZAN")
        assert gtzan["Original (G)"] < cifar["Original (G)"]


class TestSplitPlan:
    @pytest.fixture(scope="class")
    def plan(self):
        return split_plan(vit_base_config(num_classes=10), 5,
                          PAPER_BUDGETS_MB["vit-base"])

    def test_uniform_hps(self, plan):
        assert [sub.hp for sub in plan.submodels] == [9] * 5

    def test_respects_budget_in_decimal_mb(self, plan):
        total = sum(sub.size_bytes for sub in plan.submodels)
        assert total <= budget_bytes(PAPER_BUDGETS_MB["vit-base"])
        assert budget_bytes(180) == 180 * 10 ** 6

    def test_one_submodel_per_device(self, plan):
        assert len(set(plan.mapping.values())) == 5


class TestLatencyMemoryCurve:
    def test_latency_monotone_beyond_two(self):
        rows = latency_memory_curve(vit_base_config(num_classes=10),
                                    budget_mb=180)
        latencies = [r["latency_s"] for r in rows]
        assert latencies[1] >= latencies[2] >= latencies[3] >= latencies[4]

    def test_speedup_at_ten_devices_matches_paper(self):
        rows = latency_memory_curve(vit_base_config(num_classes=10),
                                    budget_mb=180, device_counts=(10,))
        # Paper: 28.9x; simulator gives ~28.2x.
        assert rows[0]["speedup_vs_original"] == pytest.approx(28.9, rel=0.1)

    def test_memory_spike_at_two_devices(self):
        rows = latency_memory_curve(vit_base_config(num_classes=10),
                                    budget_mb=180)
        mem = {r["devices"]: r["total_memory_mb"] for r in rows}
        assert mem[2] > mem[1]
        assert mem[2] > mem[3] > mem[5] > mem[10] / 1.0 or mem[3] > mem[10]

    def test_n10_per_model_size_near_paper(self):
        rows = latency_memory_curve(vit_base_config(num_classes=10),
                                    budget_mb=180, device_counts=(10,))
        assert rows[0]["per_model_mb"] == pytest.approx(9.60, rel=0.05)

    def test_vit_small_budget(self):
        rows = latency_memory_curve(vit_small_config(num_classes=10),
                                    budget_mb=PAPER_BUDGETS_MB["vit-small"],
                                    device_counts=(10,))
        assert rows[0]["per_model_mb"] == pytest.approx(2.58, rel=0.15)


class TestCommunication:
    def test_reduction_reaches_294x(self):
        rows = communication_rows()
        ten = next(r for r in rows if r["devices"] == 10)
        assert ten["reduction_x"] == pytest.approx(294.0, rel=0.01)

    def test_feature_bytes_monotone_nonincreasing(self):
        rows = communication_rows()
        sizes = [r["feature_bytes"] for r in rows]
        assert sizes == sorted(sizes, reverse=True)

    def test_transfer_under_10ms(self):
        rows = communication_rows()
        assert all(r["transfer_ms"] < 10 for r in rows)
