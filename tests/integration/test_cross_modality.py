"""Cross-modality integration: the audio path (1-channel spectrogram ViTs)
exercised end-to-end, mirroring Section V-C at reproduction scale."""

import numpy as np
import pytest

from repro.core.edvit import EDViTConfig, build_edvit
from repro.core.inference import evaluate
from repro.core.training import TrainConfig, train_classifier
from repro.edge.device import make_fleet
from repro.edge.codec import get_codec
from repro.models.vit import ViTConfig, VisionTransformer
from repro.pruning.pipeline import PruneConfig

MB = 2 ** 20


@pytest.fixture(scope="module")
def trained_audio_vit(tiny_audio_dataset):
    cfg = ViTConfig(image_size=16, patch_size=4, in_channels=1,
                    num_classes=10, depth=2, embed_dim=32, num_heads=4)
    model = VisionTransformer(cfg, rng=np.random.default_rng(0))
    train_classifier(model, tiny_audio_dataset.x_train,
                     tiny_audio_dataset.y_train,
                     TrainConfig(epochs=10, lr=3e-3, seed=0))
    return model


class TestAudioPipeline:
    def test_audio_vit_learns_spectrograms(self, trained_audio_vit,
                                           tiny_audio_dataset):
        acc = evaluate(trained_audio_vit, tiny_audio_dataset.x_test,
                       tiny_audio_dataset.y_test)
        assert acc > 0.3  # chance is 0.1

    def test_audio_split_system(self, trained_audio_vit, tiny_audio_dataset):
        system = build_edvit(
            trained_audio_vit, tiny_audio_dataset, make_fleet(2),
            EDViTConfig(num_devices=2, memory_budget_bytes=64 * MB,
                        prune=PruneConfig(probe_size=10, head_adapt_epochs=2,
                                          stage_finetune_epochs=0,
                                          retrain_epochs=3,
                                          backend="magnitude"),
                        fusion_epochs=10, fusion_lr=3e-3, seed=0))
        assert system.local_accuracy(tiny_audio_dataset.x_test,
                                     tiny_audio_dataset.y_test) > 0.15
        # Audio sub-models transmit the same tiny CLS features.
        for sub in system.plan.submodels:
            assert get_codec("raw32").estimate_bytes(sub.feature_dim) < 200

    def test_single_channel_patch_embedding_cheaper(self):
        """The Table II CIFAR-vs-GTZAN delta comes only from channels."""
        from repro.profiling import paper_flops

        rgb = ViTConfig(image_size=16, patch_size=4, in_channels=3,
                        num_classes=10, depth=2, embed_dim=32, num_heads=4)
        mono = ViTConfig(image_size=16, patch_size=4, in_channels=1,
                         num_classes=10, depth=2, embed_dim=32, num_heads=4)
        delta = paper_flops(rgb) - paper_flops(mono)
        assert delta == rgb.num_patches * 2 * 16 * 32  # 2 channels x 4x4 x d
