"""Full-scale deployment planning for ViT-Base (no training required).

Uses the analytic side of the library — Section III FLOPs/memory, the
planner's Algorithm-1 head schedule and Algorithm-3 assignment, and the
calibrated Raspberry-Pi simulator — to plan the exact deployment the
paper evaluates: ViT-Base (327 MB, 36.94 s/inference on one Pi 4B) split
across 1–10 devices under a 180 MB fleet budget.  Every table is read
off the plan the planner makes: Algorithm 1 raises every sub-model's
pruned-head count together until the fleet fits, which lands on the
paper's schedule (hp 6/6/8/9/10 at N = 1/2/3/5/10).

Run:  python examples/full_scale_planning.py
"""

from repro.core.experiments import (
    communication_rows,
    latency_memory_curve,
    table1_rows,
    table2_rows,
)
from repro.core.metrics import format_table
from repro.models.vit import vit_base_config


def main() -> None:
    print("Standard model profiles (paper Table I):")
    print(format_table(table1_rows()))

    print("\nPer-sub-model FLOPs vs devices (paper Table II):")
    print(format_table(table2_rows()))

    print("\nLatency & memory vs devices under the 180 MB budget "
          "(paper Fig. 4 b/c):")
    rows = latency_memory_curve(vit_base_config(num_classes=10),
                                budget_mb=180)
    print(format_table(rows))

    print("\nCommunication accounting at the 2 Mbps tc cap "
          "(paper Section V-D):")
    print(format_table(communication_rows()))

    ten = next(r for r in rows if r["devices"] == 10)
    print(f"\nHeadline: splitting ViT-Base across 10 Raspberry Pis, each "
          f"sub-model keeping {ten['kept_heads'][0]} of 12 heads, cuts "
          f"per-sample latency "
          f"{ten['speedup_vs_original']:.1f}x (paper: 28.9x) and shrinks "
          f"each deployed model to {ten['per_model_mb']:.2f} MB "
          f"(paper: 9.60 MB).")


if __name__ == "__main__":
    main()
