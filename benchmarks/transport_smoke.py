"""Transport + wire-codec CI smoke.

Run directly (CI does)::

    PYTHONPATH=src python benchmarks/transport_smoke.py

Pins the PR-4 acceptance bar end to end:

1. **TCP loopback** — a fleet whose workers dial back over real TCP
   sockets serves a closed-loop run with zero errors and byte-exact
   feature parity with the in-process reference models;
2. **q8 beats raw32 on the paper's 2 Mbps link** — on a tc-capped fleet
   with real (``time_scale=1``) emulated sleeps, the ``q8`` codec must
   report strictly fewer wire bytes *and* a strictly lower served p95
   than ``raw32``: fewer encoded bytes are directly less transfer time;
3. **accuracy holds** — on a trained demo system, fused accuracy under
   ``q8`` (and ``f16``) stays within 0.01 of ``raw32``;
4. **plans carry codecs** — a ``DeploymentPlan`` JSON round trip
   preserves the codec and boots a serving stack with that codec active;
5. **no Nagle stall on the TCP hop** — a 32 KiB message (sent by
   ``multiprocessing.connection`` as header + body) echoes over the
   ``tcp`` transport in a median under 10 ms; without ``TCP_NODELAY`` on
   both ends it takes ~45 ms (delayed ACK of the header, each way);
6. **boot is concurrent and holds the model once** — on ``tcp`` and
   ``multiprocess``, a 4-worker cluster of serving-shape sub-models
   starts in at most 0.75 x 4 x the start of a 1-worker cluster (median
   of 3: the children import side by side instead of one after another),
   and a worker's peak resident set after a batch-8 request is at most
   that of a worker hosting a dim-8 model plus twice its weights (3.0x
   when the blob rode in the process arguments).  That empty worker's
   peak is printed beside this process's own: a worker imports the
   inference path only and does not replay this script.

Exits non-zero on any violation, so CI fails loudly.
"""

import multiprocessing
import statistics
import sys
import time
import types

import numpy as np

from repro.core.metrics import format_table
from repro.edge.device import DeviceModel
from repro.edge.network import LinkModel, tc_capped_link
from repro.edge.runtime import EdgeCluster, WorkerSpec
from repro.edge.transport import TcpTransport
from repro.models.fusion import build_fusion_for
from repro.models.vit import ViTConfig, VisionTransformer
from repro.serving import (
    BatchingConfig,
    InferenceServer,
    LoadgenConfig,
    ServerConfig,
    build_demo_system,
    run_load,
)
from repro.serving.demo import fused_labels

ACCURACY_DROP_BOUND = 0.01
CLOSED_REQUESTS = 120
ECHO_BYTES = 32 * 1024                 # > 16 KiB: goes out as two send()s
ECHO_ROUND_TRIPS = 20
ECHO_MEDIAN_BOUND_S = 0.010
BOOT_TRANSPORTS = ("tcp", "multiprocess")
BOOT_FLEET = 4
BOOT_REPEATS = 3
BOOT_SCALING_BOUND = 0.75              # of BOOT_FLEET sequential boots
BOOT_WEIGHT_COPIES_BOUND = 2.0


def tcp_loopback_end_to_end() -> dict:
    system = build_demo_system(num_workers=2, transport="tcp")
    x = np.random.default_rng(0).normal(
        size=(4, *system.input_shape)).astype(np.float32)
    with system.make_cluster() as cluster:
        features, _ = cluster.infer_features(x)
        from repro.core.inference import extract_features
        for spec, model in zip(system.specs, system.models):
            np.testing.assert_allclose(features[spec.worker_id],
                                       extract_features(model, x), atol=1e-5)
    server = InferenceServer(system.make_cluster(), system.fusion)
    with server:
        result = run_load(server, system.input_shape,
                          LoadgenConfig(num_requests=CLOSED_REQUESTS,
                                        mode="closed", concurrency=8))
    assert result.errors == 0 and result.dropped == 0, result
    assert result.completed == CLOSED_REQUESTS, result
    return {"scenario": "tcp loopback", **result.row()}


def _echo_worker(spec, conn, time_scale) -> None:
    """``worker_main`` stand-in: send every message straight back."""
    while True:
        try:
            conn.send(conn.recv())
        except (EOFError, OSError):
            return


def tcp_large_message_round_trip() -> dict:
    transport = TcpTransport()
    # The transport itself reads nothing of a spec but its worker id.
    handle = transport.spawn(types.SimpleNamespace(worker_id="echo"), 0.0,
                             _echo_worker)
    payload = bytes(ECHO_BYTES)
    round_trips = []
    try:
        for _ in range(ECHO_ROUND_TRIPS):
            start = time.perf_counter()
            handle.send(payload)
            assert handle.poll(5.0), "echo worker never answered"
            assert handle.recv() == payload
            round_trips.append(time.perf_counter() - start)
    finally:
        handle.close()
        handle.join(5.0)
        transport.close()
    median = statistics.median(round_trips)
    assert median < ECHO_MEDIAN_BOUND_S, \
        f"32 KiB TCP round trip took {median * 1e3:.1f} ms (median of " \
        f"{ECHO_ROUND_TRIPS}); bound {ECHO_MEDIAN_BOUND_S * 1e3:.0f} ms — " \
        "is TCP_NODELAY still set on both ends?"
    return {"scenario": "tcp 32 KiB echo", "p50_ms": round(median * 1e3, 3)}


def _serving_shape_spec(worker_id: str, embed_dim: int, seed: int):
    """32px / patch 4 / depth 6: the e2e benchmark's compute-fleet shape
    at ``embed_dim=192``, its interpreter-only baseline at 8."""
    model = VisionTransformer(
        ViTConfig(image_size=32, patch_size=4, num_classes=10, depth=6,
                  embed_dim=embed_dim, num_heads=max(2, embed_dim // 64)),
        rng=np.random.default_rng(seed))
    return WorkerSpec.from_model(
        worker_id, model, "vit", flops_per_sample=1e6,
        device=DeviceModel(device_id=worker_id, macs_per_second=1e12),
        link=LinkModel(bandwidth_bps=1e9, overhead_seconds=0.0))


def _start_s(specs, transport: str) -> float:
    cluster = EdgeCluster(specs, transport=transport)
    start = time.perf_counter()
    cluster.start()
    elapsed = time.perf_counter() - start
    cluster.shutdown()
    return elapsed


def _peak_rss(pid) -> int:
    """``VmHWM`` (bytes) of process ``pid`` (or ``"self"``)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    raise AssertionError("no VmHWM line in /proc/<pid>/status")


def _worker_peak_rss(spec, transport: str) -> int:
    """``VmHWM`` (bytes) of the one worker hosting ``spec``, after it has
    served a batch-8 request."""
    x = np.zeros((8, 3, 32, 32), dtype=np.float32)
    with EdgeCluster([spec], transport=transport) as cluster:
        cluster.infer_features(x)
        worker, = multiprocessing.active_children()
        return _peak_rss(worker.pid)


def boot_gate() -> list[dict]:
    specs = [_serving_shape_spec(f"w{i}", 192, seed=i)
             for i in range(BOOT_FLEET)]
    base = _serving_shape_spec("base", 8, seed=0)
    weights = len(specs[0].state_blob)
    rows = []
    for transport in BOOT_TRANSPORTS:
        one = statistics.median(_start_s(specs[:1], transport)
                                for _ in range(BOOT_REPEATS))
        fleet = statistics.median(_start_s(specs, transport)
                                  for _ in range(BOOT_REPEATS))
        scaling = fleet / (BOOT_FLEET * one)
        assert scaling <= BOOT_SCALING_BOUND, \
            f"{transport}: {BOOT_FLEET} workers start in {fleet:.3f} s, " \
            f"{scaling:.2f} x {BOOT_FLEET} x the {one:.3f} s of one worker " \
            f"(bound {BOOT_SCALING_BOUND}) — is the launch sequential again?"
        row = {"scenario": f"boot {transport}", "one_s": round(one, 3),
               f"fleet{BOOT_FLEET}_s": round(fleet, 3),
               "scaling": round(scaling, 2)}
        if sys.platform.startswith("linux"):
            empty = _worker_peak_rss(base, transport)
            copies = (_worker_peak_rss(specs[0], transport)
                      - empty) / weights
            assert copies <= BOOT_WEIGHT_COPIES_BOUND, \
                f"{transport}: a worker peaks {copies:.2f} x its " \
                f"{weights / 2**20:.1f} MiB of weights above an empty " \
                f"one (bound {BOOT_WEIGHT_COPIES_BOUND}) — is it holding " \
                "a blob or a second state dict?"
            row["weight_copies"] = round(copies, 2)
            # What a device's process holds beside its model, next to
            # what this driver (planner, serving stack and all) holds.
            row["empty_worker_mb"] = round(empty / 2**20, 1)
            row["parent_mb"] = round(_peak_rss("self") / 2**20, 1)
        rows.append(row)
    return rows


def _wide_fleet(codec: str):
    """2 workers with 64-wide features behind the paper's 2 Mbps cap.

    ``time_scale=1`` makes the emulated transfer sleeps real, so codec
    byte savings must show up as measured latency.
    """
    models = [VisionTransformer(
        ViTConfig(image_size=8, patch_size=4, num_classes=10, depth=1,
                  embed_dim=64, num_heads=2),
        rng=np.random.default_rng(seed))
        for seed in range(2)]
    specs = [WorkerSpec.from_model(
        f"w{i}", model, "vit", flops_per_sample=1e6,
        device=DeviceModel(device_id=f"w{i}", macs_per_second=1e12),
        link=tc_capped_link(), codec=codec)
        for i, model in enumerate(models)]
    fusion = build_fusion_for([m.feature_dim() for m in models],
                              num_classes=10,
                              rng=np.random.default_rng(1000))
    return specs, fusion


def codec_latency_on_capped_link() -> tuple[list[dict], dict, dict]:
    results = {}
    rows = []
    for codec in ("raw32", "q8"):
        specs, fusion = _wide_fleet(codec)
        cluster = EdgeCluster(specs, time_scale=1.0, transport="inprocess")
        server = InferenceServer(
            cluster, fusion,
            ServerConfig(batching=BatchingConfig(max_batch_samples=16,
                                                 max_wait_s=0.002)))
        with server:
            result = run_load(server, (3, 8, 8),
                              LoadgenConfig(num_requests=CLOSED_REQUESTS,
                                            mode="closed", concurrency=8))
            report = server.stats()
        assert result.errors == 0 and result.dropped == 0, (codec, result)
        results[codec] = {"p95_s": result.p95_s,
                          "wire_in": report.wire_bytes_in}
        rows.append({"scenario": f"2 Mbps {codec}", **result.row()})
    return rows, results["raw32"], results["q8"]


def trained_accuracy_within_bound() -> dict:
    system = build_demo_system(num_workers=2, train_fusion=True)
    from repro.data import cifar10_like
    dataset = cifar10_like(image_size=8, train_per_class=48,
                           test_per_class=16, noise_std=0.3, seed=0)
    accuracy = {}
    for codec in ("raw32", "f16", "q8"):
        labels = fused_labels(system.models, system.fusion, dataset.x_test,
                              codec=codec)
        accuracy[codec] = float((labels == dataset.y_test).mean())
    for codec in ("f16", "q8"):
        drop = accuracy["raw32"] - accuracy[codec]
        assert drop <= ACCURACY_DROP_BOUND, \
            f"{codec} fused-accuracy drop {drop:.4f} exceeds " \
            f"{ACCURACY_DROP_BOUND} (accuracies: {accuracy})"
    return accuracy


def plan_codec_round_trip() -> dict:
    from repro.planning import DeploymentPlan, PlannedSystem, plan_demo_system

    planned = plan_demo_system(num_workers=2, codec="q8")
    rebuilt_plan = DeploymentPlan.from_json(planned.plan.to_json())
    assert rebuilt_plan.codec == "q8"
    assert rebuilt_plan.to_dict() == planned.plan.to_dict()
    system = PlannedSystem.from_plan(rebuilt_plan, transport="inprocess")
    server = system.make_server()
    x = np.random.default_rng(1).normal(
        size=(8, *system.input_shape)).astype(np.float32)
    with server:
        labels = server.infer(x)
        report = server.stats()
    assert all(s.codec == "q8" for s in system.make_cluster().specs)
    assert (labels == system.local_fused_labels(x)).all()
    # 8 samples x 8 features x (1 B + 8 B/row header) x 2 workers.
    assert report.wire_bytes_in == 2 * 8 * (8 + 8), report.wire_bytes_in
    return {"scenario": "plan q8 boot", "wire_in_b": report.wire_bytes_in}


def main() -> None:
    rows = [tcp_loopback_end_to_end(), tcp_large_message_round_trip()]

    capped_rows, raw32, q8 = codec_latency_on_capped_link()
    rows.extend(capped_rows)
    assert q8["wire_in"] < raw32["wire_in"], \
        f"q8 must ship fewer bytes than raw32: {q8} vs {raw32}"
    assert q8["p95_s"] < raw32["p95_s"], \
        f"q8 must serve faster than raw32 on a 2 Mbps link: {q8} vs {raw32}"

    accuracy = trained_accuracy_within_bound()
    plan_row = plan_codec_round_trip()

    print(format_table(rows))
    print(format_table(boot_gate()))
    print(f"\nwire bytes raw32 {raw32['wire_in']} -> q8 {q8['wire_in']} "
          f"({raw32['wire_in'] / q8['wire_in']:.2f}x smaller), "
          f"p95 {raw32['p95_s'] * 1e3:.1f} ms -> {q8['p95_s'] * 1e3:.1f} ms")
    print("fused accuracy:",
          {k: round(v, 4) for k, v in accuracy.items()},
          f"| {plan_row}")
    print("transport/codec smoke OK")


if __name__ == "__main__":
    main()
