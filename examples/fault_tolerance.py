"""Graceful degradation when edge devices fail.

ED-ViT's class-partitioned design has a natural robustness property the
paper leaves as future work: if a device crashes, the fusion MLP can
zero-fill the missing feature slot and keep classifying with the surviving
sub-models — accuracy degrades by roughly the crashed sub-model's class
share instead of collapsing to zero.

This script builds a 5-device system, then kills devices one by one and
reports fused accuracy plus the simulated latency of the degraded fleet.
Finally it serves the system, hard-kills one worker process, and checks
that the served answers are the zero-filled reference's.

Run:  python examples/fault_tolerance.py
"""

import time

import numpy as np

from repro.core.edvit import EDViTConfig, build_edvit
from repro.core.metrics import format_table
from repro.core.training import TrainConfig, train_classifier
from repro.data import cifar10_like
from repro.edge.device import make_fleet
from repro.edge.simulator import simulate_inference
from repro.models.vit import ViTConfig, VisionTransformer
from repro.pruning.pipeline import PruneConfig

MB = 2 ** 20
NUM_DEVICES = 5


def main() -> None:
    dataset = cifar10_like(image_size=16, train_per_class=48,
                           test_per_class=16, noise_std=0.3)
    config = ViTConfig(image_size=16, patch_size=4, in_channels=3,
                       num_classes=10, depth=2, embed_dim=32, num_heads=4)
    model = VisionTransformer(config, rng=np.random.default_rng(0))
    train_classifier(model, dataset.x_train, dataset.y_train,
                     TrainConfig(epochs=12, lr=3e-3, seed=0))

    system = build_edvit(
        model, dataset, make_fleet(NUM_DEVICES),
        EDViTConfig(num_devices=NUM_DEVICES, memory_budget_bytes=64 * MB,
                    prune=PruneConfig(probe_size=12, head_adapt_epochs=2,
                                      stage_finetune_epochs=1,
                                      retrain_epochs=3, backend="kl"),
                    fusion_epochs=12, fusion_lr=3e-3, seed=0))
    plan = system.plan
    deployment = plan.deployment_spec()

    rows = []
    failed: tuple[int, ...] = ()
    for step in range(NUM_DEVICES):
        subs = [plan.submodels[i] for i in failed]
        sim = simulate_inference(
            deployment, num_samples=1,
            failed_devices={plan.mapping[s.model_id] for s in subs})
        lost_classes = sorted(c for s in subs for c in s.classes)
        rows.append({
            "failed devices": len(failed),
            "lost classes": ",".join(map(str, lost_classes)) or "-",
            "fused accuracy": system.local_accuracy(
                dataset.x_test, dataset.y_test, zero_models=failed),
            "sim latency (ms)": sim.max_latency * 1e3,
        })
        failed += (step,)  # kill the next device for the following round

    print(format_table(rows))
    print("\nAccuracy falls roughly in proportion to the crashed devices' "
          "class share; latency never increases, and the fusion barrier "
          "never deadlocks.")

    # Live: serve the system, hard-kill the first worker process, and
    # wait for the server to answer in degraded mode (no replanning, so
    # the dead slot stays zero-filled).
    x = dataset.x_test[:32]
    victim = plan.model_ids[0]
    with system.make_server(replan=False) as server:
        np.testing.assert_array_equal(server.infer(x),
                                      system.local_fused_labels(x))
        server.cluster.kill_worker(victim)
        deadline = time.monotonic() + 30.0
        while True:
            future = server.submit(x)
            served = future.result(timeout=30.0)
            if future.telemetry.degraded or time.monotonic() > deadline:
                break
    if not future.telemetry.degraded:
        raise RuntimeError(f"killing {victim} never degraded an answer")
    np.testing.assert_array_equal(
        served, system.local_fused_labels(x, zero_models=(0,)))
    print(f"\nServed with {victim} killed: every request answered, "
          f"labels equal the zero-filled in-process reference.")


if __name__ == "__main__":
    main()
