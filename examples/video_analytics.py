"""Low-power video analytics — the paper's motivating deployment.

Sweeps the number of edge devices for a CIFAR-like video-frame
classification workload, reproducing the shape of Fig. 4: accuracy stays
roughly flat while latency and per-device memory fall as devices are
added.  Finishes by actually running the N-device system as OS processes
(the paper's Raspberry-Pi testbed, emulated).

Run:  python examples/video_analytics.py
"""

import numpy as np

from repro.core.edvit import EDViTConfig, build_edvit
from repro.core.metrics import format_table
from repro.core.training import TrainConfig, evaluate, train_classifier
from repro.data import cifar10_like
from repro.edge.device import DeviceModel, make_fleet, raspberry_pi_4b
from repro.edge.network import tc_capped_link
from repro.edge.runtime import EdgeCluster, WorkerSpec
from repro.edge.simulator import simulate_inference
from repro.models.vit import ViTConfig, VisionTransformer
from repro.profiling import paper_flops
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
        fleet = make_fleet(n)
        system = build_edvit(
            model, dataset, [d.to_spec() for d in fleet],
            EDViTConfig(num_devices=n, memory_budget_bytes=64 * MB,
                        prune=PruneConfig(probe_size=12, head_adapt_epochs=2,
                                          stage_finetune_epochs=1,
                                          retrain_epochs=3, backend="kl"),
                        fusion_epochs=12, fusion_lr=3e-3, seed=0))
        deployment = system.deployment(fleet, raspberry_pi_4b("pi-fusion"))
        sim = simulate_inference(deployment, num_samples=1)
        rows.append({
            "devices": n,
            "accuracy": system.accuracy(dataset),
            "sim latency (ms)": sim.max_latency * 1e3,
            "total size (MB)": system.total_size_mb(),
        })
        last_system = system

    print("\nFig.-4-shaped sweep (reduced scale):")
    print(format_table(rows))

    print(f"\nRunning the {DEVICE_COUNTS[-1]}-device system as real "
          f"processes (tc-capped links emulated)...")
    workers = [
        WorkerSpec.from_model(
            f"edge-{i}", sm.model, "vit",
            flops_per_sample=float(paper_flops(sm.model.config)),
            device=DeviceModel(device_id=f"edge-{i}", macs_per_second=1e12),
            link=tc_capped_link())
        for i, sm in enumerate(last_system.submodels)]
    x = dataset.x_test[:16]
    with EdgeCluster(workers, time_scale=0.0) as cluster:
        predictions, timing = cluster.infer_fused(x, last_system.fusion)
    accuracy = float((predictions == dataset.y_test[:16]).mean())
    print(f"process-emulated accuracy on 16 frames: {accuracy:.3f}")
    print(f"gather wall time: {timing.wall_seconds * 1e3:.1f} ms; "
          f"emulated critical path (Pi-4B scale): "
          f"{timing.emulated_critical_path:.2f} s per batch")


if __name__ == "__main__":
    main()
