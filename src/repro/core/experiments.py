"""Analytic experiment harness: the paper's tables and figure panels.

Model profiles (Table I), sub-model FLOPs (Table II), latency and memory
curves (Figs. 4–6 panels b/c) and communication accounting (Section V-D)
for the full-size ViT-S/B/L at 224×224.  None of them trains: sub-model
architectures come from the head schedule, latency from the calibrated
discrete-event simulator.  The trained panels (accuracy, baselines,
retraining) are the ``benchmarks/bench_*`` scripts.

Every row is read off one plan, :func:`split_plan`:
:meth:`~repro.planning.Planner.plan_vit` over N Pi 4Bs under the paper's
fleet budget, whose head schedule is Algorithm 1's loop
(:func:`repro.splitting.schedule.plan_head_schedule`).  For ViT-Base it
plans the paper's hp 6/6/8/9/10 at N = 1/2/3/5/10.
"""

from __future__ import annotations

from ..edge.codec import get_codec
from ..edge.device import make_fleet, raspberry_pi_4b
from ..edge.network import (
    RAW_IMAGE_BYTES,
    communication_reduction,
    tc_capped_link,
)
from ..edge.simulator import simulate_inference
from ..models.vit import (
    ViTConfig,
    vit_base_config,
    vit_large_config,
    vit_small_config,
)
from ..planning import DeploymentPlan, Planner, PlannerConfig
from ..profiling import paper_flops, size_mb, vit_param_count

# Sub-model sizes are MiB, as :func:`repro.profiling.size_mb` and the
# paper report them.
MB = 2 ** 20

# Device counts evaluated throughout Section V.
PAPER_DEVICE_COUNTS = (1, 2, 3, 5, 10)

# Fleet memory budgets per model family (Section V-B / V-E), in decimal
# MB (10**6 B; :func:`budget_bytes`): the one reading of the paper's
# "180 MB" under which Algorithm 1 plans hp 8, not 7, for ViT-Base at
# N = 3, as the paper's reported sizes and FLOPs imply.
PAPER_BUDGETS_MB = {"vit-small": 50, "vit-base": 180, "vit-large": 600}


def budget_bytes(budget_mb: float) -> int:
    """A fleet memory budget given in decimal MB, in bytes."""
    return int(budget_mb * 10 ** 6)


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
            "Latency (ms)": device.compute_seconds(flops) * 1e3,
            "Mem Size (MB)": size_mb(vit_param_count(
                factory(num_classes=10))),
        })
    return rows


# ----------------------------------------------------------------------
# The plan behind every analytic row
# ----------------------------------------------------------------------
def split_plan(base: ViTConfig, num_devices: int,
               budget_mb: float) -> DeploymentPlan:
    """``base`` split over ``make_fleet(num_devices)`` Pi 4Bs:
    :meth:`~repro.planning.Planner.plan_vit` under a fleet budget of
    ``budget_mb`` decimal MB."""
    planner = Planner(make_fleet(num_devices), config=PlannerConfig(
        memory_budget_bytes=budget_bytes(budget_mb)))
    return planner.plan_vit(base, num_groups=num_devices)


# ----------------------------------------------------------------------
# Table II — sub-model FLOPs vs number of devices
# ----------------------------------------------------------------------
def table2_rows() -> list[dict]:
    rows = []
    for dataset, channels in [("CIFAR-10", 3), ("GTZAN", 1)]:
        base = vit_base_config(num_classes=10, in_channels=channels)
        row: dict = {"Dataset": dataset,
                     "Original (G)": paper_flops(base) / 1e9}
        for n in (2, 3, 5, 10):
            plan = split_plan(base, n, PAPER_BUDGETS_MB["vit-base"])
            row[f"N={n} (G)"] = max(
                sub.flops_per_sample for sub in plan.submodels) / 1e9
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Figures 4–6 — latency / memory panels (simulated)
# ----------------------------------------------------------------------
def latency_memory_curve(base: ViTConfig, budget_mb: float,
                         device_counts: tuple[int, ...] = PAPER_DEVICE_COUNTS,
                         ) -> list[dict]:
    """Panels (b) and (c) of Figs. 4–6 for one model/dataset."""
    # One monolithic model on one Pi: the dotted lines of Figs. 4–5.
    original_latency = raspberry_pi_4b("pi-ref").compute_seconds(
        paper_flops(base))
    rows = []
    for n in device_counts:
        plan = split_plan(base, n, budget_mb)
        # Single-sample DES latency: the paper's latency axis.
        latency = simulate_inference(plan.deployment_spec(),
                                     num_samples=1).max_latency
        hps = tuple(sub.hp for sub in plan.submodels)
        rows.append({
            "devices": n,
            "latency_s": latency,
            "original_latency_s": original_latency,
            "speedup_vs_original": original_latency / latency,
            "total_memory_mb": sum(sub.size_bytes
                                   for sub in plan.submodels) / MB,
            "per_model_mb": plan.submodels[0].size_bytes / MB,
            "hps": hps,
            "kept_heads": tuple(base.num_heads - hp for hp in hps),
        })
    return rows


# ----------------------------------------------------------------------
# Section V-D — communication overhead
# ----------------------------------------------------------------------
def communication_rows() -> list[dict]:
    """ViT-Base's float32 CLS feature per device count against the raw
    image: 1536 B at N = 1 and 512 B (294x smaller) at N = 10."""
    base = vit_base_config(num_classes=10)
    raw32 = get_codec("raw32")
    link = tc_capped_link()
    rows = []
    for n in PAPER_DEVICE_COUNTS:
        plan = split_plan(base, n, PAPER_BUDGETS_MB["vit-base"])
        fbytes = raw32.estimate_bytes(plan.submodels[0].feature_dim)
        rows.append({
            "devices": n,
            "feature_bytes": fbytes,
            "image_bytes": RAW_IMAGE_BYTES,
            "reduction_x": communication_reduction(fbytes),
            "transfer_ms": link.transfer_seconds(fbytes) * 1e3,
        })
    return rows
