"""The three fleets of the e2e benchmark, built through the public API.

Each workload exists to make one part of the serve path dominate, so a
change to that part moves its numbers and leaves the other two alone:

* ``compute_bound`` — worker forward dominates (two pruned-ViT-like
  sub-models in their own processes, free link);
* ``link_bound`` — the emulated 2 Mbps uplink sleep dominates (interior
  pruned the way Alg. 2 prunes it, ViT-Base-width 3072 B feature, TCP);
* ``overhead_bound`` — nothing but the stack itself (dim-8 models as
  threads, warm-booted from the artifact store through the planner).

Weights are fixed by :data:`MODEL_SEED`: a workload is the same program
on every run, and ``--seed`` only draws the inputs (image pool, arrival
schedule, which pool rows a request carries).
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro import nn
from repro.edge.device import DeviceModel
from repro.edge.network import LinkModel, tc_capped_link
from repro.edge.runtime import EdgeCluster, WorkerSpec
from repro.models.fusion import build_fusion_for
from repro.models.vit import ViTConfig, VisionTransformer
from repro.planning import PlannedSystem, plan_demo_system
from repro.profiling import model_flops
from repro.serving import InferenceServer
from repro.serving.demo import fused_labels
from repro.store import ArtifactStore

HERE = Path(__file__).resolve().parent
POOL_SIZE = 256
MODEL_SEED = 0
NUM_WORKERS = 2
NUM_CLASSES = 10

# BENCHMARK.json records, one line each, why every workload was chosen.
WORKLOADS = ("compute_bound", "link_bound", "overhead_bound")

_FREE_LINK = LinkModel(bandwidth_bps=1e9, overhead_seconds=0.0)

# (sub-model config, transport, link, time_scale) of the two fleets that
# are assembled by hand from WorkerSpec.from_model.
_VIT_FLEETS = {
    "compute_bound": (
        ViTConfig(image_size=32, patch_size=4, num_classes=NUM_CLASSES,
                  depth=6, embed_dim=192, num_heads=6, name="e2e-compute"),
        "multiprocess", _FREE_LINK, 0.0),
    "link_bound": (
        # Unpruned, this dim-768 block costs ~9 ms a forward and would
        # bury the link; with attn_dim/mlp_hidden cut it costs ~1 ms
        # while the CLS feature keeps ViT-Base's 768 floats = 3072 B,
        # i.e. 12.3 ms of 2 Mbps wire per image.
        ViTConfig(image_size=8, patch_size=4, num_classes=NUM_CLASSES,
                  depth=1, embed_dim=768, num_heads=2, attn_dim=96,
                  mlp_hidden=192, name="e2e-link"),
        "tcp", tc_capped_link(), 1.0),
}


def frozen_load(workload: str) -> dict:
    """The offered rates and latency limit of ``workload`` — literals
    calibrated once on the seed commit (see README), never re-derived:
    a faster system must be measured under the same offered load."""
    with open(HERE / "frozen.json", encoding="utf-8") as handle:
        return json.load(handle)[workload]


@dataclasses.dataclass
class Prepared:
    """Everything a run needs that is made before the clock starts."""

    workload: str
    pool: np.ndarray                   # (POOL_SIZE, C, H, W) seeded inputs
    reference: np.ndarray              # in-process label of every pool row
    models: list                       # local twins of the sub-models
    fusion: object
    store: ArtifactStore | None        # pre-populated (overhead_bound)
    scratch: Path                      # this run's own directory


@dataclasses.dataclass
class Fleet:
    """A booted, serving fleet plus how long each boot step took."""

    server: InferenceServer
    timings: dict[str, float]
    time_scale: float                  # share of emulated time really slept
    planned: PlannedSystem | None = None

    def close(self) -> None:
        self.server.stop()


def _plan_overhead_fleet(store: ArtifactStore) -> PlannedSystem:
    return plan_demo_system(num_workers=NUM_WORKERS, train_fusion=True,
                            seed=MODEL_SEED, transport="inprocess",
                            store=store)


def prepare(workload: str, seed: int, scratch: Path) -> Prepared:
    """Untimed: seeded input pool, reference labels, populated store.

    Reference labels are the fp32 weights through the ``numpy`` backend
    and the lossless codec, computed in this process — whatever backend,
    quantization or codec the served fleet is switched to later, a label
    that drifts from these counts as a mismatch.
    """
    store = None
    if workload == "overhead_bound":
        store = ArtifactStore(scratch / "store")
        planned = _plan_overhead_fleet(store)     # cold: trains, populates
        models, fusion = planned.models, planned.fusion
        shape = planned.input_shape
    else:
        config = _VIT_FLEETS[workload][0]
        models = [VisionTransformer(
            config, rng=np.random.default_rng(MODEL_SEED + index))
            for index in range(NUM_WORKERS)]
        fusion = build_fusion_for(
            [m.feature_dim() for m in models], num_classes=NUM_CLASSES,
            rng=np.random.default_rng(MODEL_SEED + 1000))
        shape = (config.in_channels, config.image_size, config.image_size)
    rng = np.random.default_rng([seed, 0])
    pool = rng.normal(size=(POOL_SIZE, *shape)).astype(np.float32)
    with nn.use_backend("numpy"):
        reference = fused_labels(models, fusion, pool)
    return Prepared(workload=workload, pool=pool, reference=reference,
                    models=models, fusion=fusion, store=store,
                    scratch=scratch)


def cold_start_s() -> float:
    """Seconds a fresh interpreter takes to import what a server start
    imports — the part of set-up that precedes :func:`boot`, so that
    work moved into import time shows in ``setup_s`` too."""
    env = dict(os.environ, PYTHONPATH=str(HERE.parent.parent / "src"))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c",
                    "import repro.planning, repro.serving"],
                   env=env, check=True)
    return time.perf_counter() - t0


def boot(prepared: Prepared) -> Fleet:
    """Timed set-up: specs -> cluster -> server -> first correct reply."""
    t0 = time.perf_counter()
    planned, time_scale = None, 0.0
    if prepared.workload == "overhead_bound":
        planned = _plan_overhead_fleet(prepared.store)        # warm boot
        if not planned.warm_booted:
            raise RuntimeError("store was populated but the boot ran cold")
        server = planned.make_server()
    else:
        config, transport, link, time_scale = _VIT_FLEETS[prepared.workload]
        flops = float(model_flops("vit", config))
        specs = [WorkerSpec.from_model(
            f"w{index}", model, "vit", flops_per_sample=flops,
            device=DeviceModel(device_id=f"w{index}", macs_per_second=1e12),
            link=link)
            for index, model in enumerate(prepared.models)]
        server = InferenceServer(
            EdgeCluster(specs, time_scale=time_scale, transport=transport),
            prepared.fusion)
    t1 = time.perf_counter()
    server.cluster.start()
    t2 = time.perf_counter()
    server.start()
    try:
        first = server.infer(prepared.pool[:1], timeout=60.0)
    except BaseException:
        server.stop()
        raise
    t3 = time.perf_counter()
    if first[0] != prepared.reference[0]:
        server.stop()
        raise RuntimeError("first served label differs from the reference")
    return Fleet(server=server, planned=planned, time_scale=time_scale,
                 timings={"build_s": t1 - t0, "spawn_s": t2 - t1,
                          "first_reply_s": t3 - t2, "setup_s": t3 - t0})
