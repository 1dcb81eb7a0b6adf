"""Fig. 4 — Split ViT-Base on the computer-vision datasets.

Three panels: (a) accuracy, (b) latency, (c) total memory, vs the number
of edge devices N in {1, 2, 3, 5, 10} under a 180 MB fleet budget.

Paper anchors: accuracy >85% (CIFAR) / >91% (MNIST) / >90% (Caltech),
held roughly flat in N; latency falls from 9.63 s (N=1) to 1.28 s (N=10)
against the 36.94 s unsplit baseline; memory peaks at N=2 and falls to
~96 MB total at N=10 (9.60 MB per sub-model).

Panels (b)/(c) are regenerated at full scale via the calibrated simulator
on the plan :meth:`repro.planning.Planner.plan_vit` makes, whose
Algorithm-1 loop lands on the paper's schedule (hp 6/6/8/9/10); panel (a)
at trained reproduction scale (tiny ViT on synthetic analogues, so
absolute accuracies are lower but flat-in-N should hold).
"""

from benchmarks.conftest import IMAGE, TEST_PER_CLASS, TRAIN_PER_CLASS, print_table
from benchmarks.trained_runs import (
    BENCH_DEVICE_COUNTS,
    build_edvit_system,
    system_accuracy,
)
from repro.core.experiments import latency_memory_curve
from repro.data import caltech_like, mnist_like
from repro.models.vit import vit_base_config


def test_fig4b_fig4c_latency_memory(benchmark):
    rows = benchmark(latency_memory_curve,
                     vit_base_config(num_classes=10), budget_mb=180)
    print_table("Fig. 4(b,c): ViT-Base latency & memory vs N (simulated)",
                rows)
    ten = next(r for r in rows if r["devices"] == 10)
    assert abs(ten["latency_s"] - 1.28) / 1.28 < 0.1
    assert abs(ten["per_model_mb"] - 9.60) / 9.60 < 0.02
    # Memory spike at N=2 (both sub-models keep half the heads).
    mem = {r["devices"]: r["total_memory_mb"] for r in rows}
    assert mem[2] > mem[1] and mem[2] > mem[3]


def test_fig4a_accuracy_cv_datasets(benchmark, trained_vit, bench_dataset):
    """Accuracy vs N for the three CV dataset analogues."""

    def run():
        from repro.core.training import TrainConfig, train_classifier
        from repro.models.vit import ViTConfig, VisionTransformer
        import numpy as np

        datasets = {
            "CIFAR-10~": bench_dataset,
            "MNIST~": mnist_like(image_size=IMAGE,
                                 train_per_class=TRAIN_PER_CLASS,
                                 test_per_class=TEST_PER_CLASS),
            "Caltech~": caltech_like(num_classes=10, image_size=IMAGE,
                                     train_per_class=TRAIN_PER_CLASS,
                                     test_per_class=TEST_PER_CLASS),
        }
        rows = []
        for name, ds in datasets.items():
            if name == "CIFAR-10~":
                base = trained_vit
            else:
                cfg = ViTConfig(image_size=IMAGE, patch_size=4,
                                in_channels=ds.image_shape[0],
                                num_classes=ds.num_classes, depth=2,
                                embed_dim=32, num_heads=4)
                base = VisionTransformer(cfg, rng=np.random.default_rng(0))
                train_classifier(base, ds.x_train, ds.y_train,
                                 TrainConfig(epochs=12, lr=3e-3, seed=0))
            row = {"Dataset": name}
            for n in BENCH_DEVICE_COUNTS:
                system = build_edvit_system(base, ds, n, seed=0)
                row[f"N={n}"] = system_accuracy(system, ds)
            rows.append(row)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table("Fig. 4(a): fused accuracy vs N (trained, reduced scale)",
                rows)
    for row in rows:
        accs = [row[f"N={n}"] for n in BENCH_DEVICE_COUNTS]
        assert all(a > 0.15 for a in accs)  # always well above chance
