"""Fig. 7 — Split-CNN vs Split-SNN vs ED-ViT at 10 edge devices.

Paper shape (CIFAR-10, N=10):

* accuracy: ED-ViT best (85.59% vs 85.31% CNN / 82.29% SNN);
* latency: ED-ViT lowest — 2.70x below CNN, 4.36x below SNN (the SNN
  re-runs its conv stack every simulation time step);
* memory: ED-ViT far below CNN and comparable to SNN.

Reproduced with the three trained systems, each a ``PlannedSystem`` placed
on the fleet by Algorithm 3: latency is the calibrated simulator run on
each method's own plan (its sub-models' measured op counts and feature
widths, its placement and its fusion MLP's cost).
"""

from benchmarks.conftest import print_table
from benchmarks.trained_runs import (
    build_edvit_system,
    build_split_system,
    system_accuracy,
)
from repro.edge.simulator import simulate_inference

N_DEVICES = 10
MIB = 2 ** 20

# Paper's Fig. 7 latency ratios against ED-ViT.
PAPER_RATIOS = {"Split-CNN": 2.70, "Split-SNN": 4.36}


def _row(name, system):
    subs = system.plan.submodels
    spec = system.plan.deployment_spec()
    return {
        "Method": name,
        "latency_s": simulate_inference(spec, num_samples=1).max_latency,
        "total_memory_mb": sum(sub.size_bytes for sub in subs) / MIB,
        "total_mflops": sum(sub.flops_per_sample for sub in subs) / 1e6,
    }


def test_fig7_three_method_comparison(benchmark, trained_vit, trained_vgg,
                                      trained_snn, bench_dataset):
    def run():
        edvit = build_edvit_system(trained_vit, bench_dataset, N_DEVICES,
                                   seed=0)
        cnn = build_split_system(trained_vgg, bench_dataset, N_DEVICES,
                                 seed=0)
        snn = build_split_system(trained_snn, bench_dataset, N_DEVICES,
                                 seed=0)
        rows = []
        for name, system in [("Split-CNN", cnn), ("Split-SNN", snn),
                             ("ED-ViT", edvit)]:
            row = _row(name, system)
            row["accuracy"] = system_accuracy(system, bench_dataset)
            rows.append(row)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table("Fig. 7: method comparison at N=10 (trained + simulated)",
                rows)
    by = {r["Method"]: r for r in rows}
    for name, paper in PAPER_RATIOS.items():
        ratio = by[name]["latency_s"] / by["ED-ViT"]["latency_s"]
        print(f"{name} / ED-ViT latency: {ratio:.2f}x (paper {paper:.2f}x)")
    # SNN pays a time-step multiplier: slowest of the conv-based methods.
    assert by["Split-SNN"]["latency_s"] > by["Split-CNN"]["latency_s"]
    # All methods produce working classifiers.
    assert all(r["accuracy"] > 0.1 for r in rows)
    # ED-ViT's pruned transformer sub-models stay small.
    assert by["ED-ViT"]["total_memory_mb"] < 5 * by["Split-CNN"]["total_memory_mb"]
