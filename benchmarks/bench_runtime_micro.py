"""Micro-benchmarks of the substrate itself: autograd throughput, the
graph-free inference engine, pruning surgery cost, simulator event rate,
and process-emulation round trips.

These are engineering benchmarks (no paper counterpart): they track the
reproduction's own performance so regressions in the numpy framework or
the DES kernel are visible.

Run as a script for the CI perf-smoke job::

    PYTHONPATH=src python benchmarks/bench_runtime_micro.py --smoke

which prints the seed-style graph-building ViT-Base forward latency next
to the current ``no_grad``/``inference_mode`` fast-path latency and fails
(exit 1) if the fast path drops below the 2x acceptance bar or diverges
numerically from the autograd path.  It then runs the serving-shape
sub-model (see :func:`serving_shape_smoke`) at batch 1 and 8 and gates
its speed, its scratch footprint and its resident weight bytes.
"""

import time

import numpy as np
import pytest

from repro import nn
from repro.edge.device import DeviceModel
from repro.edge.network import LinkModel
from repro.edge.runtime import EdgeCluster, WorkerSpec
from repro.edge.simulator import DeploymentSpec, SubModelProfile, simulate_inference
from repro.models.vit import ViTConfig, VisionTransformer, vit_base_config
from repro.nn.backend import available_backends, use_backend
from repro.pruning.surgery import prune_residual_channels


def small_vit():
    cfg = ViTConfig(image_size=16, patch_size=4, num_classes=10, depth=2,
                    embed_dim=32, num_heads=4)
    return VisionTransformer(cfg, rng=np.random.default_rng(0))


@pytest.mark.parametrize("backend", available_backends())
def test_vit_forward_throughput(benchmark, backend):
    model = small_vit()
    model.eval()
    x = nn.Tensor(np.random.default_rng(0).normal(
        size=(8, 3, 16, 16)).astype(np.float32))

    def forward():
        with use_backend(backend), nn.no_grad():
            return model(x)

    out = benchmark(forward)
    assert out.shape == (8, 10)


@pytest.mark.parametrize("backend", available_backends())
def test_vit_inference_mode_throughput(benchmark, backend):
    """The workspace-cached fast path (the serving configuration), timed
    once per registered compute backend."""
    model = small_vit()
    model.eval()
    x = nn.Tensor(np.random.default_rng(0).normal(
        size=(8, 3, 16, 16)).astype(np.float32))

    def forward():
        with use_backend(backend), nn.inference_mode():
            return model(x)

    out = benchmark(forward)
    assert out.shape == (8, 10)


def test_vit_graph_forward_throughput(benchmark):
    """The graph-building forward the fast path is measured against."""
    model = small_vit()
    model.eval()
    x = nn.Tensor(np.random.default_rng(0).normal(
        size=(8, 3, 16, 16)).astype(np.float32))
    out = benchmark(lambda: model(x))
    assert out.shape == (8, 10)


def test_vit_train_step_throughput(benchmark):
    model = small_vit()
    opt = nn.Adam(model.parameters(), lr=1e-3)
    x = nn.Tensor(np.random.default_rng(0).normal(
        size=(8, 3, 16, 16)).astype(np.float32))
    y = np.arange(8) % 10

    def step():
        loss = nn.cross_entropy(model(x), y)
        opt.zero_grad()
        loss.backward()
        opt.step()
        return loss

    loss = benchmark(step)
    assert np.isfinite(loss.item())


def test_pruning_surgery_cost(benchmark):
    model = small_vit()
    keep = np.arange(16)
    pruned = benchmark(prune_residual_channels, model, keep)
    assert pruned.config.embed_dim == 16


def test_simulator_event_rate(benchmark):
    devices = [DeviceModel(f"d{i}", macs_per_second=1e9) for i in range(10)]
    profiles = {f"m{i}": SubModelProfile(f"m{i}", 1e8, 64) for i in range(10)}
    placement = {f"m{i}": f"d{i}" for i in range(10)}
    spec = DeploymentSpec(devices=devices, placement=placement,
                          profiles=profiles,
                          fusion_device=DeviceModel("f", macs_per_second=1e9),
                          fusion_flops=1e5)
    result = benchmark(simulate_inference, spec, 20)
    assert len(result.latencies) == 20


def test_edge_cluster_roundtrip(benchmark):
    cfg = ViTConfig(image_size=8, patch_size=4, num_classes=3, depth=1,
                    embed_dim=8, num_heads=2)
    model = VisionTransformer(cfg, rng=np.random.default_rng(0))
    spec = WorkerSpec.from_vit(
        "w0", model, flops_per_sample=1e6,
        device=DeviceModel("w0", macs_per_second=1e12),
        link=LinkModel(bandwidth_bps=1e9, overhead_seconds=0.0))
    x = np.zeros((1, 3, 8, 8), dtype=np.float32)
    with EdgeCluster([spec], time_scale=0.0) as cluster:
        features, _ = benchmark(cluster.infer_features, x)
    assert "w0" in features


# ----------------------------------------------------------------------
# CI perf smoke (script mode)
# ----------------------------------------------------------------------
def _seed_gelu(x, workspace=None):
    """The seed repo's GELU, verbatim: graph-building, with the ``x ** 3``
    float-pow hot spot the backend kernel replaced.  Replayed here so the
    smoke job measures the *seed* graph forward on today's hardware instead
    of trusting a stale recorded number."""
    import math

    from repro.nn.tensor import Tensor

    data = x.data
    inner = math.sqrt(2.0 / math.pi) * (data + 0.044715 * data ** 3)
    tanh_inner = np.tanh(inner)
    out_data = 0.5 * data * (1.0 + tanh_inner)

    def backward(grad):
        sech2 = 1.0 - tanh_inner ** 2
        d_inner = math.sqrt(2.0 / math.pi) * (1.0 + 3 * 0.044715 * data ** 2)
        local = 0.5 * (1.0 + tanh_inner) + 0.5 * data * sech2 * d_inner
        return [(x, grad * local)]

    return Tensor._make(out_data, (x,), backward)


def run_smoke(repeats: int = 5, min_speedup: float = 2.0) -> int:
    """Print seed-vs-current ViT-Base forward latency; 0 iff healthy.

    The baseline is the seed's graph-building forward (its op set replayed
    exactly — see ``_seed_gelu``); the acceptance bar is ``inference_mode``
    being ``min_speedup`` times faster than it with matching outputs.
    Each mode is timed as the **minimum over ``repeats`` single-shot
    passes** — the standard noise-robust microbenchmark estimator, so one
    slow repeat on a shared CI runner cannot flip the verdict.
    """
    from unittest import mock

    from repro.core.inference import benchmark_forward
    from repro.nn import ops

    config = vit_base_config(num_classes=10)
    model = VisionTransformer(config, rng=np.random.default_rng(0))
    model.eval()
    x = np.random.default_rng(0).normal(size=(1, 3, 224, 224)).astype(np.float32)

    ref = model(nn.Tensor(x)).data.copy()        # graph-building forward
    with nn.inference_mode():
        fast = model(nn.Tensor(x)).data.copy()
    close = np.allclose(fast, ref, rtol=1e-5, atol=1e-5)

    def best_of(mode):
        return min(benchmark_forward(model, x, repeats=1, mode=mode)
                   for _ in range(repeats))

    with mock.patch.object(ops, "gelu", _seed_gelu):
        seed_s = best_of("graph")
    rows = {"seed graph": seed_s}
    for mode in ("graph", "no_grad", "inference"):
        rows[mode] = best_of(mode)

    print(f"ViT-Base 224x224 single-sample forward ({repeats} reps)")
    for mode, seconds in rows.items():
        print(f"  {mode:<11} {seconds * 1e3:8.1f} ms   "
              f"{seed_s / seconds:5.2f}x vs seed graph")
    print(f"  allclose(rtol=1e-5): {close}")

    speedup = seed_s / rows["inference"]
    if not close:
        print("FAIL: fast-path outputs diverged from the autograd forward")
        return 1
    if speedup < min_speedup:
        print(f"FAIL: inference_mode speedup {speedup:.2f}x < {min_speedup}x")
        return 1
    failures = serving_shape_smoke(repeats, min_speedup)
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    print("OK")
    return 0


SERVING_SCRATCH_LIMIT = 8 << 20      # the per-module workspaces held 30.3 MiB


def _resident_weight_bytes(model) -> int:
    """Bytes of weights held for ``model``: its parameters and buffers."""
    return sum(p.data.nbytes for p in model.parameters()) \
        + sum(buf.nbytes for _, buf in model.named_buffers())


def serving_shape_smoke(repeats: int = 5, min_speedup: float = 2.0) -> list:
    """The sub-model the e2e benchmark's ``compute_bound`` fleet serves
    (32 px / patch 4 / depth 6 / dim 192), at the batch sizes it serves.

    Prints the graph-building and graph-free ``forward_features`` at batch
    1 and 8 and returns the violated gates: batch-1 graph-free at least
    ``min_speedup`` x the seed's graph forward (the same replayed baseline
    as the ViT-Base rows above), outputs equal, the model's scratch after
    a batch-8 forward within ``SERVING_SCRATCH_LIMIT``, and no weight
    bytes resident after serving that were not there before.
    """
    from unittest import mock

    from repro.core.inference import extract_features
    from repro.nn import ops

    config = ViTConfig(image_size=32, patch_size=4, num_classes=10, depth=6,
                       embed_dim=192, num_heads=6)
    model = VisionTransformer(config, rng=np.random.default_rng(0))
    model.eval()
    pool = np.random.default_rng(0).normal(
        size=(8, 3, 32, 32)).astype(np.float32)
    weights_before = _resident_weight_bytes(model)

    def best_of(fn):
        fn()                                        # warm-up
        times = []
        for _ in range(max(repeats, 5) * 4):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return min(times)

    failures = []
    print("serving-shape sub-model 32px/p4/d6/dim192 forward_features")
    for batch in (1, 8):
        x = pool[:batch]
        tensor = nn.Tensor(x)
        with mock.patch.object(ops, "gelu", _seed_gelu):
            seed_s = best_of(lambda: model.forward_features(tensor))
        graph_s = best_of(lambda: model.forward_features(tensor))
        free_s = best_of(lambda: extract_features(model, x,
                                                  keep_workspaces=True))
        close = np.allclose(extract_features(model, x, keep_workspaces=True),
                            model.forward_features(tensor).data,
                            rtol=1e-5, atol=1e-5)
        print(f"  batch {batch}: seed graph {seed_s * 1e3:7.2f} ms   "
              f"graph {graph_s * 1e3:7.2f} ms   "
              f"graph-free {free_s * 1e3:7.2f} ms   "
              f"{seed_s / free_s:5.2f}x vs seed graph, "
              f"{graph_s / free_s:5.2f}x vs graph")
        if not close:
            failures.append(f"batch {batch} graph-free features diverged "
                            "from the autograd forward")
        if batch == 1 and seed_s / free_s < min_speedup:
            failures.append(f"batch-1 graph-free speedup "
                            f"{seed_s / free_s:.2f}x < {min_speedup}x")
    scratch = sum(module.workspace.nbytes() for module in model.modules()
                  if "_workspace" in module.__dict__)
    weights_after = _resident_weight_bytes(model)
    print(f"  scratch after batch 8: {scratch / 2**20:.2f} MiB "
          f"(limit {SERVING_SCRATCH_LIMIT / 2**20:.0f})")
    print(f"  weight bytes resident: {weights_before} before serving, "
          f"{weights_after} after")
    if scratch > SERVING_SCRATCH_LIMIT:
        failures.append(f"model scratch {scratch} B > "
                        f"{SERVING_SCRATCH_LIMIT} B after a batch-8 forward")
    if weights_after != weights_before:
        failures.append(f"weight bytes resident moved: {weights_before} -> "
                        f"{weights_after}")
    return failures


if __name__ == "__main__":
    import argparse
    import sys

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="run the CI perf-smoke comparison and exit")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--min-speedup", type=float, default=2.0)
    args = parser.parse_args()
    if not args.smoke:
        parser.error("run with --smoke (or via pytest for the full benches)")
    sys.exit(run_smoke(repeats=args.repeats, min_speedup=args.min_speedup))
