"""Analytic experiment harness: the paper's tables and figure panels.

Model profiles (Table I), sub-model FLOPs (Table II), latency and memory
curves (Figs. 4–6 panels b/c) and communication accounting (Section V-D)
for the full-size ViT-S/B/L at 224×224.  None of them trains: sub-model
architectures come from the head schedule, latency from the calibrated
discrete-event simulator.  The trained panels (accuracy, baselines,
retraining) are the ``benchmarks/bench_*`` scripts.

Every row is read off two plans from one :class:`~repro.planning.Planner`
(:func:`split_plans`).  The plain columns are the *paper-implied* split:
the uniform per-N head schedule implied by the paper's reported
sub-model sizes/FLOPs (e.g. ViT-Base keeps 6/4/3/2 of 12 heads at
N=2/3/5/10, :func:`paper_hp`).  The ``planned`` columns are what the
planner plans and the repo serves: Algorithm 1's increment-the-largest
loop, which prunes less than that schedule at N ≥ 3.
"""

from __future__ import annotations

import numpy as np

from ..edge.device import make_fleet, raspberry_pi_4b
from ..edge.network import (
    RAW_IMAGE_BYTES,
    communication_reduction,
    feature_bytes,
    tc_capped_link,
)
from ..edge.simulator import simulate_inference, single_device_latency
from ..models.vit import (
    ViTConfig,
    vit_base_config,
    vit_large_config,
    vit_small_config,
)
from ..planning import DeploymentPlan, PlannedSubModel, Planner, PlannerConfig
from ..profiling import paper_flops, size_mb, vit_param_count
from ..splitting.class_assignment import balanced_class_partition
from ..splitting.schedule import footprint

MB = 2 ** 20

# Device counts evaluated throughout Section V.
PAPER_DEVICE_COUNTS = (1, 2, 3, 5, 10)

# Memory budgets per model family (Section V-B / V-E).
PAPER_BUDGETS_MB = {"vit-small": 50, "vit-base": 180, "vit-large": 600}

# Heads *kept* per sub-model at each N, as implied by the paper's reported
# sizes/FLOPs for ViT-Base (6/4/3/2 of 12) and generalized by ratio.
_PAPER_KEPT_FRACTION = {1: 1 / 2, 2: 1 / 2, 3: 1 / 3, 5: 1 / 4, 10: 1 / 6}


def paper_kept_heads(num_heads: int, num_devices: int) -> int:
    if num_devices in _PAPER_KEPT_FRACTION:
        fraction = _PAPER_KEPT_FRACTION[num_devices]
    else:
        fraction = 1.0 / max(1.0, num_devices * 0.6)
    # Floor, not round: the paper's ViT-Large N=10 sub-models keep
    # floor(16/6)=2 heads (18.73 MB), not round(16/6)=3.
    return max(1, int(num_heads * fraction))


def paper_hp(num_heads: int, num_devices: int) -> int:
    return num_heads - paper_kept_heads(num_heads, num_devices)


# ----------------------------------------------------------------------
# Table I — standard model profiles
# ----------------------------------------------------------------------
def table1_rows(num_classes: int = 1000) -> list[dict]:
    device = raspberry_pi_4b("pi-ref")
    rows = []
    for name, factory, depth, width, heads in [
            ("ViT-Small", vit_small_config, 12, 384, 6),
            ("ViT-Base", vit_base_config, 12, 768, 12),
            ("ViT-Large", vit_large_config, 24, 1024, 16)]:
        cfg = factory(num_classes=num_classes)
        params = vit_param_count(cfg)
        flops = paper_flops(cfg)
        rows.append({
            "Model": name,
            "Depth": depth,
            "Width": width,
            "Heads": heads,
            "Params (M)": params / 1e6,
            "Flops (G)": flops / 1e9,
            "Latency (ms)": single_device_latency(device, flops) * 1e3,
            "Mem Size (MB)": size_mb(vit_param_count(
                factory(num_classes=10))),
        })
    return rows


# ----------------------------------------------------------------------
# The two plans behind every analytic row
# ----------------------------------------------------------------------
def split_plans(base: ViTConfig, num_devices: int,
                budget_mb: float) -> tuple[DeploymentPlan, DeploymentPlan]:
    """``(paper_implied, planned)`` splits of ``base`` over N Pi 4Bs.

    One :class:`~repro.planning.Planner` over ``make_fleet(num_devices)``
    places both.  ``planned`` is the plan the repo serves:
    :meth:`~repro.planning.Planner.plan_vit`, Algorithm 1's head schedule
    under the ``budget_mb`` fleet budget.  ``paper_implied`` runs the
    uniform ``paper_hp`` schedule on the class partition ``plan_vit``
    draws (same seed) through
    :meth:`~repro.planning.Planner.plan_submodels`.
    """
    planner = Planner(make_fleet(num_devices), config=PlannerConfig(
        memory_budget_bytes=int(budget_mb * MB)))
    groups = balanced_class_partition(
        base.num_classes, num_devices,
        np.random.default_rng(planner.config.seed))
    hp = paper_hp(base.num_heads, num_devices)
    paper_implied = planner.plan_submodels(base.num_classes, groups, [
        PlannedSubModel.from_footprint(footprint(base, i, hp, len(group)),
                                       group)
        for i, group in enumerate(groups)])
    return paper_implied, planner.plan_vit(base, num_groups=num_devices)


def _latency_s(plan: DeploymentPlan) -> float:
    """Single-sample DES latency of ``plan`` (the paper's latency axis)."""
    return simulate_inference(plan.deployment_spec(), num_samples=1).max_latency


def _total_mb(plan: DeploymentPlan) -> float:
    return sum(sub.size_bytes for sub in plan.submodels) / MB


def _hps(plan: DeploymentPlan) -> tuple[int, ...]:
    return tuple(sub.hp for sub in plan.submodels)


def _max_gflops(plan: DeploymentPlan) -> float:
    return max(sub.flops_per_sample for sub in plan.submodels) / 1e9


# ----------------------------------------------------------------------
# Table II — sub-model FLOPs vs number of devices
# ----------------------------------------------------------------------
def table2_rows() -> list[dict]:
    rows = []
    for dataset, channels in [("CIFAR-10", 3), ("GTZAN", 1)]:
        base = vit_base_config(num_classes=10, in_channels=channels)
        plans = {n: split_plans(base, n, PAPER_BUDGETS_MB["vit-base"])
                 for n in (2, 3, 5, 10)}
        row: dict = {"Dataset": dataset,
                     "Original (G)": paper_flops(base) / 1e9}
        row.update({f"N={n} (G)": _max_gflops(paper_implied)
                    for n, (paper_implied, _) in plans.items()})
        row.update({f"N={n} planned (G)": _max_gflops(planned)
                    for n, (_, planned) in plans.items()})
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Figures 4–6 — latency / memory panels (simulated)
# ----------------------------------------------------------------------
def latency_memory_curve(base: ViTConfig, budget_mb: float,
                         device_counts: tuple[int, ...] = PAPER_DEVICE_COUNTS,
                         ) -> list[dict]:
    """Panels (b) and (c) of Figs. 4–6 for one model/dataset."""
    original_latency = single_device_latency(raspberry_pi_4b("pi-ref"),
                                             paper_flops(base))
    rows = []
    for n in device_counts:
        paper_implied, planned = split_plans(base, n, budget_mb)
        latency = _latency_s(paper_implied)
        hps = _hps(paper_implied)
        rows.append({
            "devices": n,
            "latency_s": latency,
            "original_latency_s": original_latency,
            "speedup_vs_original": original_latency / latency,
            "total_memory_mb": _total_mb(paper_implied),
            "per_model_mb": paper_implied.submodels[0].size_bytes / MB,
            "hps": hps,
            "kept_heads": tuple(base.num_heads - hp for hp in hps),
            "planned_latency_s": _latency_s(planned),
            "planned_total_memory_mb": _total_mb(planned),
            "planned_hps": _hps(planned),
        })
    return rows


# ----------------------------------------------------------------------
# Section V-D — communication overhead
# ----------------------------------------------------------------------
def communication_rows(base: ViTConfig | None = None,
                       device_counts: tuple[int, ...] = PAPER_DEVICE_COUNTS,
                       ) -> list[dict]:
    base = base or vit_base_config(num_classes=10)
    link = tc_capped_link()
    rows = []
    for n in device_counts:
        paper_implied, planned = split_plans(base, n,
                                             PAPER_BUDGETS_MB["vit-base"])
        fbytes = feature_bytes(paper_implied.submodels[0].feature_dim)
        rows.append({
            "devices": n,
            "feature_bytes": fbytes,
            "image_bytes": RAW_IMAGE_BYTES,
            "reduction_x": communication_reduction(fbytes),
            "transfer_ms": link.transfer_seconds(fbytes) * 1e3,
            "planned_feature_bytes": feature_bytes(
                planned.submodels[0].feature_dim),
        })
    return rows
