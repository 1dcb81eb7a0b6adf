"""Pruning-ratio sweeps, two panels (supporting analysis for Fig. 2 / § IV-C).

1. Head-count sweep: size/FLOPs of a ViT-Base sub-model as ``hp`` grows —
   the quadratic size collapse that drives the paper's 34x reduction.
2. Accuracy-vs-hp on a trained model: how hard each pruning level hits
   subset accuracy before/after retraining.
"""

from benchmarks.conftest import print_table
from repro.core.inference import evaluate
from repro.models.vit import vit_base_config
from repro.profiling import paper_flops, size_mb, vit_param_count
from repro.pruning.pipeline import PruneConfig, prune_submodel
from repro.splitting.schedule import submodel_config


def test_head_sweep_analytic(benchmark):
    base = vit_base_config(num_classes=10)

    def run():
        rows = []
        for hp in range(0, 12, 2):
            cfg = submodel_config(base, hp, 10)
            rows.append({
                "hp": hp,
                "kept_heads": 12 - hp,
                "embed_dim": cfg.embed_dim,
                "size_mb": size_mb(vit_param_count(cfg)),
                "gmacs": paper_flops(cfg) / 1e9,
            })
        return rows

    rows = benchmark(run)
    print_table("Head-pruning sweep: ViT-Base sub-model footprint", rows)
    sizes = [r["size_mb"] for r in rows]
    assert sizes == sorted(sizes, reverse=True)
    # Quadratic collapse: hp=10 leaves < 4% of the original size.
    assert rows[-1]["size_mb"] / rows[0]["size_mb"] < 0.04


def test_accuracy_vs_pruning_level(benchmark, trained_vit, bench_dataset):
    def run():
        rows = []
        classes = list(range(5))
        subset = bench_dataset.subset_of_classes(classes)
        for hp in (0, 1, 2, 3):
            cfg = PruneConfig(probe_size=12, head_adapt_epochs=2,
                              stage_finetune_epochs=0, retrain_epochs=3,
                              backend="magnitude", seed=0)
            sub = prune_submodel(trained_vit, bench_dataset, classes, hp,
                                 config=cfg)
            rows.append({
                "hp": hp,
                "params": sub.model.num_parameters(),
                "subset_acc": evaluate(sub.model, subset.x_test,
                                       subset.y_test),
            })
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table("Accuracy vs pruning level (trained, classes 0-4)", rows)
    params = [r["params"] for r in rows]
    assert params == sorted(params, reverse=True)
    assert all(r["subset_acc"] > 0.2 for r in rows)
