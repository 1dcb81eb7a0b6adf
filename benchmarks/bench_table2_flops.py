"""Table II — per-sub-model FLOPs vs number of edge devices (ViT-Base).

Paper values (GMACs):

    Dataset   Original  N=2   N=3   N=5    N=10
    CIFAR-10  16.86     4.25  1.90  1.08   0.48
    GTZAN     16.79     4.20  1.88  1.059  0.46
"""

from benchmarks.conftest import print_table
from repro.core.experiments import table2_rows


def test_table2_paper_schedule(benchmark):
    rows = benchmark(table2_rows)
    print_table("Table II: sub-model FLOPs (paper-implied and planned head "
                "schedules)", rows)
    cifar = next(r for r in rows if r["Dataset"] == "CIFAR-10")
    gtzan = next(r for r in rows if r["Dataset"] == "GTZAN")
    # Monotone decrease and the exact N=2 == ViT-Small anchor.
    assert cifar["N=2 (G)"] > cifar["N=3 (G)"] > cifar["N=5 (G)"] > cifar["N=10 (G)"]
    assert abs(cifar["N=2 (G)"] - 4.25) < 0.05
    # GTZAN only differs in the patch embedding.
    assert gtzan["Original (G)"] < cifar["Original (G)"]


def test_table2_algorithm1_schedule(benchmark):
    """The planned columns: the planner's Algorithm-1 loop, which prunes
    less than the paper's reported schedule: 3.02 / 1.97 / 1.17 G at
    N=3/5/10 on CIFAR-10 against the paper's 1.90 / 1.08 / 0.48 G."""
    rows = benchmark(table2_rows)
    cifar = next(r for r in rows if r["Dataset"] == "CIFAR-10")
    assert (cifar["N=2 planned (G)"] >= cifar["N=3 planned (G)"]
            >= cifar["N=10 planned (G)"])
