"""Fig. 5 — Split ViT-Base on the audio-recognition datasets.

Paper anchors: GTZAN accuracy >84%, Speech Command >90%; latency falls
from 9.55 s to 1.28 s (25.13x vs the 32.16 s original); sub-model size
reaches 9.35 MB at N=10 under the 180 MB budget.
"""

from benchmarks.conftest import (
    IMAGE,
    TEST_PER_CLASS,
    TRAIN_PER_CLASS,
    print_table,
)
from benchmarks.trained_runs import (
    BENCH_DEVICE_COUNTS,
    build_edvit_system,
    system_accuracy,
)
from repro.core.experiments import latency_memory_curve
from repro.data import speech_command_like
from repro.models.vit import vit_base_config


def test_fig5b_fig5c_latency_memory(benchmark):
    rows = benchmark(latency_memory_curve,
                     vit_base_config(num_classes=10, in_channels=1),
                     budget_mb=180)
    print_table("Fig. 5(b,c): audio ViT-Base latency & memory vs N", rows)
    ten = next(r for r in rows if r["devices"] == 10)
    assert abs(ten["per_model_mb"] - 9.35) / 9.35 < 0.03
    latencies = [r["latency_s"] for r in rows]
    assert latencies[-1] < latencies[0]


def test_fig5a_accuracy_audio_datasets(benchmark, trained_audio_vit,
                                       bench_audio_dataset):
    def run():
        import numpy as np

        from repro.core.training import TrainConfig, train_classifier
        from repro.models.vit import ViTConfig, VisionTransformer

        speech = speech_command_like(num_classes=10, image_size=IMAGE,
                                     train_per_class=TRAIN_PER_CLASS,
                                     test_per_class=TEST_PER_CLASS)
        cfg = ViTConfig(image_size=IMAGE, patch_size=4, in_channels=1,
                        num_classes=10, depth=2, embed_dim=32, num_heads=4)
        speech_vit = VisionTransformer(cfg, rng=np.random.default_rng(0))
        train_classifier(speech_vit, speech.x_train, speech.y_train,
                         TrainConfig(epochs=12, lr=3e-3, seed=0))

        rows = []
        for name, ds, base in [("GTZAN~", bench_audio_dataset,
                                trained_audio_vit),
                               ("SpeechCommand~", speech, speech_vit)]:
            row = {"Dataset": name}
            for n in BENCH_DEVICE_COUNTS:
                system = build_edvit_system(base, ds, n, seed=0)
                row[f"N={n}"] = system_accuracy(system, ds)
            rows.append(row)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table("Fig. 5(a): audio fused accuracy vs N (trained)", rows)
    for row in rows:
        assert all(row[f"N={n}"] > 0.15 for n in BENCH_DEVICE_COUNTS)
