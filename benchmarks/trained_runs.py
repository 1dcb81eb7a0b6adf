"""Shared builders for the trained benchmarks (Tables III/IV, Figs. 4/5/7).

All three systems (ED-ViT, Split-CNN, Split-SNN) are built under identical
protocols: same class partitions, same fusion machinery, sub-models pruned
to comparable keep ratios.  Paper scale is 5 trials over N in {1,2,3,5,10};
reproduction scale defaults to fewer trials and a subset of N to keep the
bench wall-clock reasonable — pass wider lists to go deeper.
"""

from __future__ import annotations

from repro.baselines import (
    SplitCNNConfig,
    SplitSNNConfig,
    build_split_cnn,
    build_split_snn,
)
from repro.core.edvit import EDViTConfig, build_edvit
from repro.edge.device import make_fleet
from repro.pruning.pipeline import PruneConfig
from repro.splitting.fusion import fused_accuracy

MB = 2 ** 20

BENCH_DEVICE_COUNTS = (1, 2, 5)
BENCH_TRIALS = 2


def edvit_prune_config(seed: int) -> PruneConfig:
    return PruneConfig(probe_size=12, head_adapt_epochs=2,
                       stage_finetune_epochs=1, retrain_epochs=3,
                       backend="kl", seed=seed)


def build_edvit_system(trained_vit, dataset, n: int, seed: int = 0,
                       budget_mb: float = 64.0):
    return build_edvit(
        trained_vit, dataset, make_fleet(n),
        EDViTConfig(num_devices=n, memory_budget_bytes=int(budget_mb * MB),
                    prune=edvit_prune_config(seed), fusion_epochs=12,
                    fusion_lr=3e-3, seed=seed))


def build_cnn_system(trained_vgg, dataset, n: int, seed: int = 0,
                     keep_ratio: float = 0.5):
    return build_split_cnn(
        trained_vgg, dataset,
        SplitCNNConfig(num_devices=n, keep_ratio=keep_ratio, adapt_epochs=2,
                       finetune_epochs=3, fusion_epochs=12, seed=seed))


def build_snn_system(trained_snn, dataset, n: int, seed: int = 0,
                     keep_ratio: float = 0.5):
    return build_split_snn(
        trained_snn, dataset,
        SplitSNNConfig(num_devices=n, keep_ratio=keep_ratio, adapt_epochs=2,
                       finetune_epochs=3, fusion_epochs=12, seed=seed))


def system_accuracy(system, dataset) -> float:
    """Fused test accuracy of an ED-ViT, Split-CNN or Split-SNN system."""
    return fused_accuracy(system.models, system.fusion, dataset)


def accuracy_over_trials(builder, dataset, n: int, trials: int) -> list[float]:
    return [system_accuracy(builder(n=n, seed=trial), dataset)
            for trial in range(trials)]
