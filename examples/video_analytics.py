"""Low-power video analytics — the paper's motivating deployment.

Sweeps the number of edge devices for a CIFAR-like video-frame
classification workload, reproducing the shape of Fig. 4: accuracy stays
roughly flat while latency and per-device memory fall as devices are
added.  Finishes by serving the N-device system on its planned placement,
one worker process per sub-model (the paper's Raspberry-Pi testbed,
emulated), and checks the served labels against the in-process reference.

Run:  python examples/video_analytics.py
"""

import numpy as np

from repro.core.edvit import EDViTConfig, build_edvit
from repro.core.inference import evaluate
from repro.core.metrics import format_table
from repro.core.training import TrainConfig, train_classifier
from repro.data import cifar10_like
from repro.edge.device import make_fleet
from repro.edge.simulator import simulate_inference
from repro.models.vit import ViTConfig, VisionTransformer
from repro.pruning.pipeline import PruneConfig

MB = 2 ** 20
DEVICE_COUNTS = (1, 2, 5)


def main() -> None:
    dataset = cifar10_like(image_size=16, train_per_class=48,
                           test_per_class=16, noise_std=0.3)
    config = ViTConfig(image_size=16, patch_size=4, in_channels=3,
                       num_classes=10, depth=2, embed_dim=32, num_heads=4)
    model = VisionTransformer(config, rng=np.random.default_rng(0))
    train_classifier(model, dataset.x_train, dataset.y_train,
                     TrainConfig(epochs=12, lr=3e-3, seed=0))
    print(f"original accuracy: "
          f"{evaluate(model, dataset.x_test, dataset.y_test):.3f}")

    rows = []
    last_system = None
    for n in DEVICE_COUNTS:
        system = build_edvit(
            model, dataset, make_fleet(n),
            EDViTConfig(num_devices=n, memory_budget_bytes=64 * MB,
                        prune=PruneConfig(probe_size=12, head_adapt_epochs=2,
                                          stage_finetune_epochs=1,
                                          retrain_epochs=3, backend="kl"),
                        fusion_epochs=12, fusion_lr=3e-3, seed=0))
        plan = system.plan
        sim = simulate_inference(plan.deployment_spec(), num_samples=1)
        rows.append({
            "devices": n,
            "accuracy": system.local_accuracy(dataset.x_test, dataset.y_test),
            "sim latency (ms)": sim.max_latency * 1e3,
            "total size (MB)": sum(s.size_bytes for s in plan.submodels) / MB,
        })
        last_system = system

    print("\nFig.-4-shaped sweep (reduced scale):")
    print(format_table(rows))

    print(f"\nServing the {DEVICE_COUNTS[-1]}-device system on its planned "
          f"Pi-4B placement, one worker process per sub-model...")
    x = dataset.x_test[:16]
    with last_system.make_server() as server:
        served = server.infer(x)
    np.testing.assert_array_equal(served, last_system.local_fused_labels(x))
    accuracy = float((served == dataset.y_test[:16]).mean())
    print(f"placement: {last_system.plan.mapping}")
    print(f"served accuracy on 16 frames: {accuracy:.3f} "
          f"(labels equal the in-process reference)")


if __name__ == "__main__":
    main()
