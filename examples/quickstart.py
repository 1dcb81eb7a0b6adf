"""Quickstart: split a Vision Transformer across 3 emulated edge devices.

Runs the entire ED-ViT pipeline (Fig. 1 of the paper) at laptop scale:

1. train a small ViT on a synthetic 10-class image dataset;
2. split it into 3 class-specific sub-models, prune each with the
   three-stage KL pruner, and train the fusion MLP;
3. report accuracy / size / FLOPs, and simulate deployment latency on a
   fleet of Raspberry-Pi-class devices;
4. serve the built system on its planned placement (one worker process
   per sub-model) and check the served labels against the in-process
   reference.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.core.edvit import EDViTConfig, build_edvit
from repro.core.inference import evaluate
from repro.core.metrics import format_table
from repro.core.training import TrainConfig, train_classifier
from repro.data import cifar10_like
from repro.edge.device import make_fleet, raspberry_pi_4b
from repro.edge.simulator import simulate_inference
from repro.models.vit import ViTConfig, VisionTransformer
from repro.profiling import module_size_mb, paper_flops
from repro.pruning.pipeline import PruneConfig
from repro.splitting.fusion import softmax_average_accuracy

MB = 2 ** 20
NUM_DEVICES = 3


def main() -> None:
    print("== 1. Train the original Vision Transformer ==")
    dataset = cifar10_like(image_size=16, train_per_class=48,
                           test_per_class=16, noise_std=0.3)
    config = ViTConfig(image_size=16, patch_size=4, in_channels=3,
                       num_classes=10, depth=2, embed_dim=32, num_heads=4)
    model = VisionTransformer(config, rng=np.random.default_rng(0))
    train_classifier(model, dataset.x_train, dataset.y_train,
                     TrainConfig(epochs=12, lr=3e-3, seed=0))
    original_acc = evaluate(model, dataset.x_test, dataset.y_test)
    print(f"original test accuracy: {original_acc:.3f}, "
          f"size: {module_size_mb(model):.2f} MB")

    print(f"\n== 2. Build ED-ViT across {NUM_DEVICES} devices ==")
    system = build_edvit(
        model, dataset, make_fleet(NUM_DEVICES),
        EDViTConfig(num_devices=NUM_DEVICES,
                    memory_budget_bytes=64 * MB,
                    prune=PruneConfig(probe_size=16, head_adapt_epochs=2,
                                      stage_finetune_epochs=1,
                                      retrain_epochs=3, backend="kl"),
                    fusion_epochs=12, fusion_lr=3e-3, seed=0))

    plan = system.plan
    rows = []
    for sub in plan.submodels:
        rows.append({
            "sub-model": sub.model_id,
            "classes": ",".join(map(str, sub.classes)),
            "kept heads": config.num_heads - sub.hp,
            "size (MB)": sub.size_bytes / MB,
            "GMACs": sub.flops_per_sample / 1e9,
            "device": plan.mapping[sub.model_id],
        })
    print(format_table(rows))

    print("\n== 3. Evaluate the distributed system ==")
    fused = system.local_accuracy(dataset.x_test, dataset.y_test)
    averaged = softmax_average_accuracy(system.models, plan.partition,
                                        dataset)
    total_mb = sum(sub.size_bytes for sub in plan.submodels) / MB
    print(f"fused accuracy:       {fused:.3f}  (original {original_acc:.3f})")
    print(f"softmax-avg accuracy: {averaged:.3f}  (the 'w/o retrain' variant)")
    print(f"total sub-model size: {total_mb:.2f} MB "
          f"(original {module_size_mb(model):.2f} MB)")

    print("\n== 4. Simulate deployment latency on Raspberry-Pi devices ==")
    result = simulate_inference(plan.deployment_spec(), num_samples=1)
    original_latency = raspberry_pi_4b("ref").compute_seconds(
        paper_flops(config))
    print(f"simulated per-sample latency: {result.max_latency * 1e3:.2f} ms "
          f"(unsplit original: {original_latency * 1e3:.2f} ms, "
          f"{original_latency / result.max_latency:.1f}x faster)")

    print("\n== 5. Serve it on the planned placement ==")
    x = dataset.x_test[:32]
    with system.make_server() as server:
        served = server.infer(x)
    np.testing.assert_array_equal(served, system.local_fused_labels(x))
    print(f"served {len(x)} images from {len(plan.submodels)} worker "
          f"processes; labels equal the in-process reference")


if __name__ == "__main__":
    main()
