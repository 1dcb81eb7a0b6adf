"""Audio recognition on edge devices (the paper's GTZAN / Speech Command
experiments, Section V-C).

Spectrogram classification with a single-channel ViT, split across edge
devices.  Audio models transmit the same tiny CLS features as the vision
models, so the communication accounting of Section V-D applies unchanged —
this script reports it alongside accuracy, then serves each built system
on its planned placement and checks the served labels against the
in-process reference.

Run:  python examples/audio_keyword_spotting.py
"""

import numpy as np

from repro.core.edvit import EDViTConfig, build_edvit
from repro.core.metrics import format_table
from repro.core.training import TrainConfig, evaluate, train_classifier
from repro.data import gtzan_like, speech_command_like
from repro.edge.device import make_fleet
from repro.edge.network import communication_reduction, feature_bytes, tc_capped_link
from repro.models.vit import ViTConfig, VisionTransformer
from repro.pruning.pipeline import PruneConfig

MB = 2 ** 20
NUM_DEVICES = 2


def build_for(dataset, seed=0):
    config = ViTConfig(image_size=16, patch_size=4, in_channels=1,
                       num_classes=dataset.num_classes, depth=2,
                       embed_dim=32, num_heads=4)
    model = VisionTransformer(config, rng=np.random.default_rng(seed))
    train_classifier(model, dataset.x_train, dataset.y_train,
                     TrainConfig(epochs=12, lr=3e-3, seed=seed))
    system = build_edvit(
        model, dataset, make_fleet(NUM_DEVICES),
        EDViTConfig(num_devices=NUM_DEVICES, memory_budget_bytes=64 * MB,
                    prune=PruneConfig(probe_size=12, head_adapt_epochs=2,
                                      stage_finetune_epochs=1,
                                      retrain_epochs=3, backend="kl"),
                    fusion_epochs=12, fusion_lr=3e-3, seed=seed))
    return model, system


def main() -> None:
    link = tc_capped_link()
    rows = []
    for name, dataset in [
            ("GTZAN~ (music genres)",
             gtzan_like(image_size=16, train_per_class=48, test_per_class=16)),
            ("SpeechCommand~ (keywords)",
             speech_command_like(num_classes=10, image_size=16,
                                 train_per_class=48, test_per_class=16))]:
        model, system = build_for(dataset)
        subs = system.plan.submodels
        fdim = subs[0].feature_dim
        x = dataset.x_test
        with system.make_server() as server:
            served = server.infer(x)
        np.testing.assert_array_equal(served, system.local_fused_labels(x))
        rows.append({
            "dataset": name,
            "original acc": evaluate(model, dataset.x_test, dataset.y_test),
            "served acc": float((served == dataset.y_test).mean()),
            "total size (MB)": sum(s.size_bytes for s in subs) / MB,
            "feature (B)": feature_bytes(fdim),
            "vs raw image": f"{communication_reduction(feature_bytes(fdim)):.0f}x",
            "transfer (ms)": link.transfer_seconds(feature_bytes(fdim)) * 1e3,
        })
    print(format_table(rows))
    print("\nFeatures replace raw spectrogram frames on the 2 Mbps uplink, "
          "mirroring Section V-D's 294x communication reduction at scale.")


if __name__ == "__main__":
    main()
