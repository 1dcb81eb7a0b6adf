"""Fig. 6 — Split ViT-Small and ViT-Large on CIFAR-10 / Caltech.

Paper anchors: budgets 50 MB (Small) / 600 MB (Large); at N=10 the
per-sub-model size is 2.58 MB (Small, 32.06x) and 18.73 MB (Large,
61.77x); accuracy ordering Small < Base < Large; latency ordering
Small < Base < Large at every N.

Rows are read off the plan :meth:`repro.planning.Planner.plan_vit` makes
under each family's budget.  ViT-Small lands on the paper's N=10 size
(hp 5).  ViT-Large N=10 is the one pinned divergence: see
:func:`test_fig6_vit_large_curves`.
"""

from benchmarks.conftest import print_table
from repro.core.experiments import PAPER_BUDGETS_MB, latency_memory_curve
from repro.models.vit import vit_base_config, vit_large_config, vit_small_config


def test_fig6_vit_small_curves(benchmark):
    rows = benchmark(latency_memory_curve, vit_small_config(num_classes=10),
                     budget_mb=PAPER_BUDGETS_MB["vit-small"])
    print_table("Fig. 6: ViT-Small latency & memory vs N", rows)
    ten = next(r for r in rows if r["devices"] == 10)
    assert abs(ten["per_model_mb"] - 2.58) / 2.58 < 0.12
    assert all(r["total_memory_mb"] <= 50 * 1.01 for r in rows)


def test_fig6_vit_large_curves(benchmark):
    rows = benchmark(latency_memory_curve, vit_large_config(num_classes=10),
                     budget_mb=PAPER_BUDGETS_MB["vit-large"])
    print_table("Fig. 6: ViT-Large latency & memory vs N", rows)
    ten = next(r for r in rows if r["devices"] == 10)
    # Diverges from the paper's 18.73 MB (61.77x) per sub-model, which
    # needs hp 14 (2 of 16 heads kept).  Algorithm 1 stops at hp 13 once
    # the fleet fits 600 MB (10 x 41.44 MiB); hp 14 would need a fleet
    # budget below 434.5 MB, so no reading of the paper's 600 MB reaches it.
    assert ten["hps"] == (13,) * 10
    assert round(ten["per_model_mb"], 2) == 41.44
    assert all(r["total_memory_mb"] <= 600 * 1.01 for r in rows)


def test_fig6_size_ordering_across_families(benchmark):
    def run():
        out = {}
        for name, cfg, budget in [
                ("small", vit_small_config(num_classes=10), 50),
                ("base", vit_base_config(num_classes=10), 180),
                ("large", vit_large_config(num_classes=10), 600)]:
            rows = latency_memory_curve(cfg, budget_mb=budget,
                                        device_counts=(5,))
            out[name] = rows[0]
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table("Fig. 6 cross-family comparison at N=5",
                [{"family": k} | v for k, v in out.items()])
    assert (out["small"]["latency_s"] < out["base"]["latency_s"]
            < out["large"]["latency_s"])
    assert (out["small"]["total_memory_mb"] < out["base"]["total_memory_mb"]
            < out["large"]["total_memory_mb"])
