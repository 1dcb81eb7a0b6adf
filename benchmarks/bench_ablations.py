"""Ablations of the design choices DESIGN.md calls out.

1. KL-divergence vs magnitude importance for structured pruning;
2. greedy (Algorithm 3) vs optimal assignment — optimality gap;
3. balanced vs skewed class partitions;
4. fusion MLP shrink factor (lambda) sweep.
"""

import numpy as np

from benchmarks.conftest import print_table
from repro.assignment import PlannedSubModel, greedy_assign, optimal_assign
from repro.core.edvit import EDViTConfig, build_edvit
from repro.core.inference import evaluate
from repro.edge.device import DeviceModel, make_fleet
from repro.pruning.pipeline import PruneConfig, prune_submodel
from repro.serving.demo import fused_labels
from repro.splitting.class_assignment import (
    balanced_class_partition,
    unbalanced_class_partition,
)
from repro.splitting.fusion import train_fusion_mlp

MB = 2 ** 20


def test_ablation_kl_vs_magnitude(benchmark, trained_vit, bench_dataset):
    """KL-guided pruning should match or beat magnitude pruning."""

    def run():
        rows = []
        for backend in ("kl", "magnitude"):
            cfg = PruneConfig(probe_size=16, head_adapt_epochs=2,
                              stage_finetune_epochs=1, retrain_epochs=3,
                              backend=backend, seed=0)
            sub = prune_submodel(trained_vit, bench_dataset,
                                 list(range(5)), hp=2, config=cfg)
            subset = bench_dataset.subset_of_classes(list(range(5)))
            rows.append({"backend": backend,
                         "subset_accuracy": evaluate(sub.model, subset.x_test,
                                                     subset.y_test)})
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table("Ablation: pruning importance backend", rows)
    assert all(r["subset_accuracy"] > 0.2 for r in rows)


def test_ablation_greedy_vs_optimal_gap(benchmark):
    """Quantify Algorithm 3's optimality gap on heterogeneous fleets."""

    def run():
        rng = np.random.default_rng(42)
        gaps = []
        for _ in range(20):
            devices = [DeviceModel(f"d{i}", memory_bytes=200,
                                   energy_flops=float(rng.integers(80, 200)))
                       for i in range(4)]
            # Synthetic sub-models: Algorithm 3 reads only size and FLOPs.
            models = [PlannedSubModel(
                f"m{j}", classes=(), hp=0, size_bytes=20,
                flops_per_sample=float(rng.integers(10, 60)), feature_dim=1,
                model_kind="vit", model_config={}) for j in range(5)]
            try:
                greedy = greedy_assign(devices, models, 1).objective
                optimal = optimal_assign(devices, models, 1).objective
            except Exception:
                continue
            gaps.append((optimal - greedy) / max(optimal, 1e-9))
        return gaps

    gaps = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\ngreedy-vs-optimal objective gap: mean={np.mean(gaps):.3f} "
          f"max={np.max(gaps):.3f} over {len(gaps)} instances")
    assert np.mean(gaps) < 0.3


def test_ablation_balanced_vs_skewed_partition(benchmark, trained_vit,
                                               bench_dataset):
    """The |Ca|-|Cb|<=1 constraint: balanced partitions should not lose to
    heavily skewed ones (and usually win, since no sub-model is starved)."""

    def run():
        fleet = make_fleet(3)
        results = {}
        for name, groups in [
                ("balanced", balanced_class_partition(
                    10, 3, np.random.default_rng(0))),
                ("skewed", unbalanced_class_partition(
                    10, 3, skew=3.0, rng=np.random.default_rng(0)))]:
            # Rebuild ED-ViT but with an injected partition.
            from repro.splitting.schedule import plan_head_schedule
            from repro.pruning.pipeline import prune_submodel

            schedule = plan_head_schedule(trained_vit.config, groups, fleet,
                                          memory_budget_bytes=64 * MB,
                                          num_samples=1)
            cfg = PruneConfig(probe_size=12, head_adapt_epochs=2,
                              stage_finetune_epochs=0, retrain_epochs=3,
                              backend="magnitude", seed=0)
            models = [prune_submodel(trained_vit, bench_dataset, classes,
                                     sub.hp, config=cfg).model
                      for classes, sub in zip(groups, schedule.submodels)]
            fusion = train_fusion_mlp(models, bench_dataset, epochs=12,
                                      lr=3e-3, seed=0)
            labels = fused_labels(models, fusion, bench_dataset.x_test)
            results[name] = float((labels == bench_dataset.y_test).mean())
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\npartition ablation: {results}")
    assert results["balanced"] > results["skewed"] - 0.15


def test_ablation_fusion_shrink_sweep(benchmark, trained_vit, bench_dataset):
    """Sweep the tower-MLP shrink factor lambda around the paper's 0.5."""

    def run():
        # The sub-models do not depend on lambda: build them once, then
        # train one fusion MLP per shrink factor on their frozen features.
        system = build_edvit(
            trained_vit, bench_dataset, make_fleet(2),
            EDViTConfig(num_devices=2, memory_budget_bytes=64 * MB,
                        prune=PruneConfig(probe_size=12, head_adapt_epochs=2,
                                          stage_finetune_epochs=0,
                                          retrain_epochs=3,
                                          backend="magnitude", seed=0),
                        fusion_epochs=12, fusion_lr=3e-3, seed=0))
        rows = []
        for shrink in (0.25, 0.5, 1.0):
            fusion = train_fusion_mlp(system.models, bench_dataset,
                                      epochs=12, lr=3e-3, shrink=shrink,
                                      seed=0)
            labels = fused_labels(system.models, fusion,
                                  bench_dataset.x_test)
            rows.append({"lambda": shrink,
                         "accuracy": float(
                             (labels == bench_dataset.y_test).mean()),
                         "fusion_hidden": fusion.config.hidden_dim})
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table("Ablation: fusion MLP shrink factor", rows)
    assert all(r["accuracy"] > 0.15 for r in rows)
