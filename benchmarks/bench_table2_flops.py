"""Table II — per-sub-model FLOPs vs number of edge devices (ViT-Base).

Paper values (GMACs):

    Dataset   Original  N=2   N=3   N=5    N=10
    CIFAR-10  16.86     4.25  1.90  1.08   0.48
    GTZAN     16.79     4.20  1.88  1.059  0.46

Every column is the largest sub-model of the plan
:meth:`repro.planning.Planner.plan_vit` makes under the 180 MB fleet
budget (hp 6/8/9/10 at N = 2/3/5/10).
"""

from benchmarks.conftest import print_table
from repro.core.experiments import table2_rows


def test_table2_flops(benchmark):
    rows = benchmark(table2_rows)
    print_table("Table II: sub-model FLOPs (Algorithm 1's head schedule)",
                rows)
    cifar = next(r for r in rows if r["Dataset"] == "CIFAR-10")
    gtzan = next(r for r in rows if r["Dataset"] == "GTZAN")
    # Monotone decrease and the exact N=2 == ViT-Small anchor.
    assert cifar["N=2 (G)"] > cifar["N=3 (G)"] > cifar["N=5 (G)"] > cifar["N=10 (G)"]
    assert abs(cifar["N=2 (G)"] - 4.25) < 0.05
    # GTZAN only differs in the patch embedding.
    assert gtzan["Original (G)"] < cifar["Original (G)"]
