"""Section V-D — communication overhead accounting, now codec-aware.

Paper anchors: features shrink from 1536 B (one device) to 512 B (ten
devices) against a 150528 B raw image — a 294x reduction; the maximum
per-device communication time at the 2 Mbps tc cap is 5.86 ms.

On top of the paper's raw32 numbers, the codec sweep crosses every wire
codec with link bandwidths from the tc cap up to gigabit and reports
bytes, per-feature transfer latency, and fused-prediction agreement with
raw32 — the trade-off surface the planner's ``select_codec`` walks.
"""

import numpy as np

from benchmarks.conftest import print_table
from repro.core.experiments import communication_rows
from repro.edge.codec import get_codec
from repro.edge.network import LinkModel, RAW_IMAGE_BYTES, TC_CAP_BPS, tc_capped_link
from repro.planning import plan_demo_system
from repro.serving.demo import fused_labels

SWEEP_CODECS = ("raw32", "f16", "q8", "q8+zlib")
SWEEP_BANDWIDTHS_BPS = (TC_CAP_BPS, 10_000_000, 1_000_000_000)
FEATURE_DIM = 128                      # the paper's ten-device feature width


def test_communication_accounting(benchmark):
    rows = benchmark(communication_rows)
    print_table("Section V-D: feature sizes and transfer times", rows)
    by_n = {r["devices"]: r for r in rows}
    assert by_n[1]["feature_bytes"] == 1536
    assert by_n[10]["feature_bytes"] == 512
    assert abs(by_n[10]["reduction_x"] - 294.0) < 0.5
    assert all(r["transfer_ms"] < 7.0 for r in rows)


def test_raw_image_transfer_dominates(benchmark):
    """Shipping the raw image instead of features costs ~100x more time."""
    link = tc_capped_link()
    image_time = benchmark(link.transfer_seconds, RAW_IMAGE_BYTES)
    feature_time = link.transfer_seconds(512)
    print(f"\nraw image: {image_time * 1e3:.1f} ms, "
          f"feature: {feature_time * 1e3:.2f} ms")
    assert image_time / feature_time > 100


def _codec_sweep_rows() -> list[dict]:
    rng = np.random.default_rng(0)
    features = rng.normal(size=(64, FEATURE_DIM)).astype(np.float32)
    system = plan_demo_system(num_workers=2, seed=0)
    x = rng.normal(size=(64, *system.input_shape)).astype(np.float32)
    reference = fused_labels(system.models, system.fusion, x)

    rows = []
    for name in SWEEP_CODECS:
        codec = get_codec(name)
        encoded = codec.encode(features)
        per_feature = encoded.nbytes / len(features)
        roundtrip = codec.decode(encoded)
        labels = fused_labels(system.models, system.fusion, x, codec=name)
        row = {
            "codec": name,
            "bytes/feature": round(per_feature, 1),
            "vs_raw32_x": round(FEATURE_DIM * 4 / per_feature, 2),
            "max_abs_err": float(np.abs(roundtrip - features).max()),
            "fused_agreement": float((labels == reference).mean()),
        }
        for bps in SWEEP_BANDWIDTHS_BPS:
            link = LinkModel(bandwidth_bps=bps)
            label = f"ms@{bps // 1_000_000}Mbps"
            row[label] = round(
                link.transfer_seconds(int(per_feature)) * 1e3, 3)
        rows.append(row)
    return rows


def test_codec_bandwidth_sweep(benchmark):
    """Codec x bandwidth: bytes, latency, and accuracy-proxy in one table."""
    rows = benchmark(_codec_sweep_rows)
    print_table("Wire codecs x link bandwidth (128-dim features)", rows)
    by_codec = {r["codec"]: r for r in rows}

    # Bytes shrink monotonically raw32 -> f16 -> q8, and transfer time at
    # the tc cap follows the byte count.
    assert by_codec["raw32"]["bytes/feature"] == 512.0
    assert by_codec["f16"]["bytes/feature"] == 256.0
    assert by_codec["q8"]["bytes/feature"] < 256.0
    cap_ms = f"ms@{TC_CAP_BPS // 1_000_000}Mbps"
    assert by_codec["q8"][cap_ms] < by_codec["f16"][cap_ms] \
        < by_codec["raw32"][cap_ms]

    # Lossy codecs stay close: bounded reconstruction error and near-total
    # fused-prediction agreement with raw32.
    assert by_codec["raw32"]["max_abs_err"] == 0.0
    assert by_codec["q8"]["max_abs_err"] < 0.05
    for name in SWEEP_CODECS:
        assert by_codec[name]["fused_agreement"] >= 0.95, by_codec[name]
