"""Backend + quantization CI smoke: the `blocked` backend must earn its keep.

Run directly (CI does)::

    PYTHONPATH=src python benchmarks/backend_smoke.py

Four gates, exit 1 on any failure:

* **Serving kernels (hard)** — the kernels where the blocked backend
  actually innovates, at ViT-Base batch-8 @224 shapes.  ``softmax`` on
  the (8, 12, 197, 197) attention scores must be >= 1.5x faster
  (clip-instead-of-max-shift + GEMV normalizer + cache-blocked row
  sweeps; observed 1.7x+ across hosts), and must agree numerically
  (rtol 2e-4).  (``layer_norm`` is the reference kernel on both
  backends, so there is nothing to compare.)
  The GEMMs themselves already run at the BLAS roofline under the
  reference backend, so they are covered by the E2E gates instead.
  All speedups are gated on the **median** of interleaved A/B timing
  pairs: sustained serving latency is what the fleet feels, and the
  median of paired ratios is far more stable than min-of-N on shared
  virtualized CPUs whose performance floor wanders.
* **End-to-end regression guards** — a long-sequence tiny-ViT forward
  (image 32, patch 2: 257 tokens, the attention-heavy regime) must not
  lose to the reference (typical win 1.1-1.2x), and the demo-scale and
  ViT-Base-geometry forwards must stay within noise of parity.  E2E
  wins are bounded by Amdahl — most of a fp32 forward is roofline GEMM
  either way — and whole-model latency on a shared single-core VM
  carries ~10% run-to-run drift, so the E2E rows guard against the
  blocked backend *hurting* a fleet while the kernel rows above carry
  the quantitative speedup claims.
* **Int8 artifacts** — the quantized store variant of every planned
  sub-model must be >= 2x smaller than its fp32 twin, and the fused
  demo-system accuracy must stay within one point of fp32.  Int8 here
  is a *footprint* knob, not a speed knob: the gate enforces size and
  accuracy, never latency.
* **Planner auto-selection** — ``plan_demo_system(quant="auto")`` under
  a memory budget too tight for fp32 must fall back to int8, populate
  the store with the int8 artifacts, and warm-boot from them on the
  second invocation.
"""

import sys
import tempfile
import time

import numpy as np

from repro import nn
from repro.core.metrics import format_table
from repro.models.vit import (
    ViTConfig,
    VisionTransformer,
    vit_base_config,
)
from repro.nn.backend import NumpyBackend, use_backend
from repro.nn.blocked import BlockedBackend
from repro.planning import plan_demo_system
from repro.store import ArtifactStore

SOFTMAX_MIN_SPEEDUP = 1.5      # hard gate: attention softmax median
LONGSEQ_MIN_SPEEDUP = 1.0      # attention-heavy E2E must not lose
E2E_NO_REGRESSION = 0.85       # whole-model latency noise allowance
INT8_MIN_RATIO = 2.0           # artifact bytes fp32 / int8
INT8_MAX_ACC_DROP = 0.01       # fused accuracy, absolute


def _sample(fn, inner: int) -> float:
    t0 = time.perf_counter()
    for _ in range(inner):
        fn()
    return (time.perf_counter() - t0) / inner


def speedup_of(baseline, candidate, pairs: int = 9,
               min_sample_s: float = 0.02) -> float:
    """Median of interleaved baseline/candidate timing ratios.

    Two robustness measures, both earned the hard way on shared
    virtualized CPUs: (1) samples are taken in A/B *pairs* so slow
    drift in host performance hits both sides equally instead of
    whichever happened to be measured second; (2) the gate statistic is
    the median ratio — sustained serving latency — because min-of-N
    never converges when the floor itself wanders.  Sub-millisecond
    workloads are looped until one sample spans ``min_sample_s``.
    """
    baseline()                             # warm caches and pack weights
    candidate()
    once = max(_sample(baseline, 1), 1e-9)
    inner = max(1, int(min_sample_s / once))
    ratios = []
    for _ in range(pairs):
        t_base = _sample(baseline, inner)
        t_cand = _sample(candidate, inner)
        ratios.append(t_base / t_cand)
    return float(np.median(ratios))


# ----------------------------------------------------------------------
# Gate 1: serving kernels (hard: softmax >= 1.5x)
# ----------------------------------------------------------------------
def gate_serving_kernels(rows: list[dict]) -> bool:
    rng = np.random.default_rng(0)
    scores = (rng.normal(size=(8, 12, 197, 197)) * 3).astype(np.float32)

    reference, blocked = NumpyBackend(), BlockedBackend()
    cases = [
        ("softmax (hard)",
         lambda be: be.softmax(scores, axis=-1), SOFTMAX_MIN_SPEEDUP),
    ]
    ok = True
    for name, kernel, bar in cases:
        np.testing.assert_allclose(kernel(blocked), kernel(reference),
                                   rtol=2e-4, atol=2e-5)
        speedup = speedup_of(lambda: kernel(reference),
                             lambda: kernel(blocked), pairs=15)
        t_ref = _sample(lambda: kernel(reference), 3)
        t_blk = _sample(lambda: kernel(blocked), 3)
        case_ok = speedup >= bar
        ok = ok and case_ok
        rows.append({"gate": f"kernel {name}",
                     "numpy_ms": f"{t_ref * 1e3:.2f}",
                     "blocked_ms": f"{t_blk * 1e3:.2f}",
                     "speedup": f"{speedup:.2f}x (median)",
                     "bar": f">= {bar}x",
                     "ok": case_ok})
    return ok


# ----------------------------------------------------------------------
# Gate 2: end-to-end forwards (win long-seq, regress nowhere)
# ----------------------------------------------------------------------
def _e2e_speedup(config: ViTConfig, batch: int) -> float:
    model = VisionTransformer(config, rng=np.random.default_rng(1))
    model.eval()
    x = nn.Tensor(np.random.default_rng(2).normal(
        size=(batch, 3, config.image_size, config.image_size))
        .astype(np.float32))

    def forward():
        with nn.inference_mode():
            return model(x)

    def forward_numpy():
        with use_backend("numpy"):
            return forward()

    def forward_blocked():
        with use_backend("blocked"):
            return forward()

    ref = forward_numpy().data.copy()
    np.testing.assert_allclose(forward_blocked().data, ref,
                               rtol=2e-3, atol=2e-4)
    return speedup_of(forward_numpy, forward_blocked)


def gate_end_to_end(rows: list[dict]) -> bool:
    cases = [
        ("long-seq ViT (257 tok)",
         ViTConfig(image_size=32, patch_size=2, num_classes=10, depth=4,
                   embed_dim=64, num_heads=4),
         8, LONGSEQ_MIN_SPEEDUP),
        ("demo-scale ViT",
         ViTConfig(image_size=16, patch_size=4, num_classes=10, depth=2,
                   embed_dim=32, num_heads=4),
         8, E2E_NO_REGRESSION),
        ("ViT-Base geometry @32",
         vit_base_config(num_classes=10, image_size=32),
         8, E2E_NO_REGRESSION),
    ]
    ok = True
    for name, config, batch, bar in cases:
        speedup = _e2e_speedup(config, batch)
        case_ok = speedup >= bar
        ok = ok and case_ok
        rows.append({"gate": f"e2e {name}", "numpy_ms": "-",
                     "blocked_ms": "-", "speedup": f"{speedup:.2f}x",
                     "bar": f">= {bar}x", "ok": case_ok})
    return ok


# ----------------------------------------------------------------------
# Gates 3 + 4: int8 artifacts and planner auto-selection
# ----------------------------------------------------------------------
def gate_quantization(rows: list[dict]) -> bool:
    ok = True
    with tempfile.TemporaryDirectory() as root:
        store = ArtifactStore(root)
        fp32 = plan_demo_system(num_workers=2, train_fusion=True,
                                fusion_epochs=2, store=store,
                                transport="inprocess")
        int8 = plan_demo_system(num_workers=2, train_fusion=True,
                                fusion_epochs=2, store=store,
                                transport="inprocess", quant="auto",
                                memory_headroom=0.5)

        # Gate 3a: every int8 artifact at least 2x smaller than fp32.
        worst = float("inf")
        for sub_fp32, sub_int8 in zip(fp32.plan.submodels,
                                      int8.plan.submodels):
            worst = min(worst, sub_fp32.size_bytes / sub_int8.size_bytes)
        size_ok = worst >= INT8_MIN_RATIO
        ok = ok and size_ok
        rows.append({"gate": "int8 artifact size", "numpy_ms": "-",
                     "blocked_ms": "-", "speedup": f"{worst:.2f}x smaller",
                     "bar": f">= {INT8_MIN_RATIO}x", "ok": size_ok})

        # Gate 3b: fused accuracy within a point of fp32.
        drop = abs(fp32.plan.prediction.accuracy
                   - int8.plan.prediction.accuracy)
        acc_ok = drop <= INT8_MAX_ACC_DROP + 1e-9
        ok = ok and acc_ok
        rows.append({"gate": "int8 fused accuracy", "numpy_ms": "-",
                     "blocked_ms": "-", "speedup": f"{drop * 100:.2f}pt drop",
                     "bar": f"<= {INT8_MAX_ACC_DROP * 100:.0f}pt",
                     "ok": acc_ok})

        # Gate 4: auto selected int8 under pressure, and the artifacts it
        # populated warm-boot the next deployment of the same plan.
        selected = [m.quant for m in int8.plan.submodels]
        again = plan_demo_system(num_workers=2, train_fusion=True,
                                 fusion_epochs=2, store=store,
                                 transport="inprocess", quant="auto",
                                 memory_headroom=0.5)
        auto_ok = (all(q == "int8" for q in selected)
                   and again.warm_booted
                   and all(nn.is_quantized(m) for m in again.models))
        ok = ok and auto_ok
        rows.append({"gate": "auto plan + warm boot", "numpy_ms": "-",
                     "blocked_ms": "-",
                     "speedup": f"{selected} warm={again.warm_booted}",
                     "bar": "int8 + warm", "ok": auto_ok})
    return ok


def main() -> int:
    rows: list[dict] = []
    ok = gate_serving_kernels(rows)
    ok = gate_end_to_end(rows) and ok
    ok = gate_quantization(rows) and ok
    print(format_table(rows))
    if not ok:
        print("backend smoke FAILED", file=sys.stderr)
        return 1
    print("backend smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
