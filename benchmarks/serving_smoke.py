"""Serving-layer CI smoke: sustained load, batching win, degraded fusion.

Run directly (CI does, once per transport)::

    PYTHONPATH=src python benchmarks/serving_smoke.py [--transport inprocess]

Against a 2-worker emulated fleet at ``time_scale=0`` it checks that:

* a few hundred open-loop Poisson requests complete with **zero drops and
  zero errors** and a sane p99 (bounded well below a second at this toy
  scale);
* closed-loop throughput with dynamic batching is **strictly higher**
  than with batch size 1 (the serving layer's reason to exist); and
* hard-killing a worker mid-run yields **degraded answers, not failures**
  (every request still served, the dead worker marked down).

The ``--transport`` flag reruns the whole gauntlet on a different worker
substrate (``multiprocess``, ``inprocess``, ``tcp``) — CI runs a matrix
over it, so every transport keeps passing the same end-to-end bar.

Exits non-zero on any violation, so CI fails loudly.
"""

import argparse
import threading

from repro.core.metrics import format_table
from repro.edge.transport import TRANSPORTS
from repro.serving import (
    BatchingConfig,
    InferenceServer,
    LoadgenConfig,
    ServerConfig,
    build_demo_system,
    run_load,
)

P99_CEILING_S = 0.5
OPEN_REQUESTS = 300
CLOSED_REQUESTS = 200
TRANSPORT = "multiprocess"


def make_server(max_batch_samples: int, max_wait_s: float):
    system = build_demo_system(num_workers=2, time_scale=0.0,
                               transport=TRANSPORT)
    server = InferenceServer(
        system.make_cluster(), system.fusion,
        ServerConfig(batching=BatchingConfig(
            max_batch_samples=max_batch_samples, max_wait_s=max_wait_s)))
    return system, server


def main() -> None:
    global TRANSPORT
    parser = argparse.ArgumentParser()
    parser.add_argument("--transport", choices=sorted(TRANSPORTS),
                        default="multiprocess")
    TRANSPORT = parser.parse_args().transport
    print(f"transport: {TRANSPORT}")
    rows = []

    # 1. Sustained open-loop traffic: zero drops, sane p99.
    system, server = make_server(16, 0.002)
    with server:
        open_result = run_load(server, system.input_shape,
                               LoadgenConfig(num_requests=OPEN_REQUESTS,
                                             mode="open", offered_rps=300.0))
    rows.append({"scenario": "open loop", **open_result.row()})
    assert open_result.completed == OPEN_REQUESTS, open_result
    assert open_result.dropped == 0 and open_result.errors == 0, open_result
    assert open_result.p99_s < P99_CEILING_S, \
        f"p99 {open_result.p99_s:.3f}s exceeds {P99_CEILING_S}s"

    # 2. Dynamic batching strictly beats batch=1 dispatch.  "dynamic" is
    # the default load-driven batcher: a 5 ms max_wait_s window capped it
    # near 8 requests per 5 ms, below a fast host's batch=1 rate.
    throughput = {}
    for label, max_batch, max_wait in (("batch=1", 1, 0.0),
                                       ("dynamic", 16, 0.0)):
        system, server = make_server(max_batch, max_wait)
        with server:
            result = run_load(server, system.input_shape,
                              LoadgenConfig(num_requests=CLOSED_REQUESTS,
                                            mode="closed", concurrency=8))
        rows.append({"scenario": f"closed {label}", **result.row()})
        assert result.errors == 0 and result.dropped == 0, result
        throughput[label] = result.achieved_rps
    assert throughput["dynamic"] > throughput["batch=1"], \
        f"dynamic batching must win: {throughput}"

    # 3. Mid-run worker kill: degraded, never dropped.
    system, server = make_server(16, 0.002)
    with server:
        threading.Timer(0.15, server.cluster.kill_worker,
                        (system.specs[0].worker_id,)).start()
        kill_result = run_load(server, system.input_shape,
                               LoadgenConfig(num_requests=OPEN_REQUESTS,
                                             mode="open", offered_rps=300.0))
        report = server.stats()
    rows.append({"scenario": "worker kill", **kill_result.row()})
    assert kill_result.completed == OPEN_REQUESTS, kill_result
    assert kill_result.dropped == 0 and kill_result.errors == 0, kill_result
    assert report.degraded_requests > 0, "kill landed after the run ended"
    assert sum(1 for s in report.worker_health.values() if s != "up") == 1

    print(format_table(rows))
    speedup = throughput["dynamic"] / throughput["batch=1"]
    print(f"\nbatching speedup: {speedup:.2f}x | "
          f"degraded requests through kill: {report.degraded_requests} "
          f"(0 failed)\nserving smoke OK")


if __name__ == "__main__":
    main()
