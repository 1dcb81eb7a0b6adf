"""Sustained video-analytics-style traffic through the serving layer.

Where ``examples/fault_tolerance.py`` analyses device failure *offline*
(simulated latency, analytic accuracy), this demo exercises the runtime
path: a 3-worker planned fleet behind :class:`repro.serving.InferenceServer`
serves a Poisson stream of frames while one worker is hard-killed mid-run.
The server detects the death (pipe EOF + liveness), marks the worker down,
zero-fills its feature slot, and keeps answering — so the stream sees
degraded accuracy, not dropped requests.

The fusion MLP is trained on the sub-models' features, so the printed
accuracies are meaningful: healthy-fleet accuracy beats chance, and the
degraded tail loses roughly the dead worker's share.

Run:  python examples/streaming_serving.py
"""

import threading

import numpy as np

from repro.core.metrics import format_table
from repro.planning import plan_demo_system
from repro.serving import BatchingConfig, LoadgenConfig, ServerConfig, run_load

NUM_WORKERS = 3
OFFERED_RPS = 150.0
KILL_AFTER_S = 0.4


def main() -> None:
    system = plan_demo_system(num_workers=NUM_WORKERS, image_size=16,
                              train_fusion=True, fusion_epochs=12, seed=0)
    dataset = system.eval_dataset()
    x_test = dataset.x_test.astype(np.float32)
    y_test = np.asarray(dataset.y_test)

    # No replanner: the dead worker's slot stays zero-filled, so the tail
    # of the stream shows degraded accuracy rather than a recovery.
    server = system.make_server(
        ServerConfig(batching=BatchingConfig(max_batch_samples=16,
                                             max_wait_s=0.002)),
        replan=False)
    with server:
        victim = system.plan.model_ids[0]
        threading.Timer(KILL_AFTER_S, server.cluster.kill_worker,
                        (victim,)).start()

        # Poisson frame arrivals via the load generator; each request is
        # one labelled test image so the served labels can be scored.
        truth: list[int] = []

        def frame(rng, _count):
            index = int(rng.integers(len(x_test)))
            truth.append(int(y_test[index]))
            return x_test[index][None]

        result = run_load(server, system.input_shape,
                          LoadgenConfig(num_requests=len(x_test) * 3,
                                        mode="open",
                                        offered_rps=OFFERED_RPS),
                          make_input=frame)

        healthy_hits, healthy_n = 0, 0
        degraded_hits, degraded_n = 0, 0
        for future, label in zip(result.futures, truth):
            predicted = future.result(30.0)[0]
            if future.telemetry.degraded:
                degraded_hits += int(predicted == label)
                degraded_n += 1
            else:
                healthy_hits += int(predicted == label)
                healthy_n += 1
        report = server.stats()

    print(format_table([report.row()]))
    rows = [{"phase": "healthy fleet", "requests": healthy_n,
             "accuracy": healthy_hits / max(healthy_n, 1)},
            {"phase": f"degraded ({victim} dead)", "requests": degraded_n,
             "accuracy": degraded_hits / max(degraded_n, 1)}]
    print(format_table(rows))
    for worker_id, health in report.worker_health.items():
        print(f"  worker {worker_id}: {health}")
    print("\nEvery request was answered: the kill degraded accuracy, "
          "not availability.")


if __name__ == "__main__":
    main()
