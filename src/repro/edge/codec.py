"""Feature wire codecs: shrink bytes-on-the-wire for shipped features.

The paper's deployment is communication-bound by design — every device
sits behind a tc-capped 2 Mbps uplink — so the bytes a worker ships per
feature vector translate directly into served latency.  A
:class:`FeatureCodec` encodes a worker's ``(N, D)`` float32 feature array
into a compact byte payload at the worker and decodes it back at the
server; the emulated link charges
:meth:`~repro.edge.network.LinkModel.transfer_seconds` on the *encoded*
byte count, so a smaller codec is a faster fleet.

The fixed table :data:`CODECS` holds every codec a name may select
(``WorkerSpec.codec``, ``DeploymentPlan.codec``, ``serve --codec``):

* ``raw32`` — float32 verbatim (4 B/value), lossless, the default;
* ``f16``  — IEEE half precision (2 B/value), ~1e-3 relative error;
* ``q8``   — per-row affine int8 quantization (1 B/value + 8 B/row for
  the row's min/scale), max abs error half a quantization step;

and each one's ``+zlib`` wrapper (e.g. ``q8+zlib``), which DEFLATEs the
payload.  Its *estimated* bytes (used by the planner's DES scoring)
equal the base codec's, which is **not** an upper bound: noise-like
features barely compress, and zlib's framing (up to zlib's
``compressBound``, 11 B on a small payload) is then sent on top — a
5×37 normal array goes out as 381 B under ``f16+zlib`` against 370 B
estimated.  For the base codecs the estimate is exact.
"""

from __future__ import annotations

import dataclasses
import math
import zlib

import numpy as np

FLOAT32_BYTES = 4
# DEFLATE level of the ``+zlib`` codecs.
ZLIB_LEVEL = 6


@dataclasses.dataclass(frozen=True)
class EncodedFeatures:
    """A codec's wire representation of one ``(N, D)`` feature array."""

    codec: str                         # name of the codec that produced it
    shape: tuple[int, int]             # (num_samples, feature_dim)
    payload: bytes                     # everything needed to decode

    @property
    def nbytes(self) -> int:
        """Bytes on the wire — what the emulated link charges for."""
        return len(self.payload)


def _as_features(x: np.ndarray) -> np.ndarray:
    x = np.ascontiguousarray(x, dtype=np.float32)
    if x.ndim != 2:
        raise ValueError(f"feature codecs expect a (N, D) array, got shape "
                         f"{x.shape}")
    return x


class FeatureCodec:
    """Base class: float32 verbatim (the ``raw32`` behaviour)."""

    name = "raw32"
    bytes_per_value: float = float(FLOAT32_BYTES)
    row_overhead_bytes: int = 0
    # Expected fused-accuracy cost of the codec's quantization error; the
    # planner uses it when no trained system exists to measure against.
    nominal_accuracy_drop: float = 0.0

    def encode(self, features: np.ndarray) -> EncodedFeatures:
        features = _as_features(features)
        return EncodedFeatures(self.name, features.shape, features.tobytes())

    def decode(self, encoded: EncodedFeatures) -> np.ndarray:
        return np.frombuffer(encoded.payload, dtype=np.float32).reshape(
            encoded.shape).copy()

    def estimate_bytes(self, feature_dim: int) -> int:
        """A-priori wire bytes of one sample's features (what the planner's
        DES scoring uses)."""
        return int(math.ceil(self.bytes_per_value * feature_dim
                             + self.row_overhead_bytes))


class F16Codec(FeatureCodec):
    name = "f16"
    bytes_per_value = 2.0
    nominal_accuracy_drop = 1e-4

    def encode(self, features: np.ndarray) -> EncodedFeatures:
        features = _as_features(features)
        return EncodedFeatures(self.name, features.shape,
                               features.astype(np.float16).tobytes())

    def decode(self, encoded: EncodedFeatures) -> np.ndarray:
        return np.frombuffer(encoded.payload, dtype=np.float16).reshape(
            encoded.shape).astype(np.float32)


class Q8Codec(FeatureCodec):
    """Per-row affine int8: ``x ≈ lo + q * (hi - lo) / 255``.

    Each row (one sample's feature vector) stores its own float32 ``lo``
    and ``scale`` header, so one outlier sample cannot wreck the whole
    batch's resolution.  Constant rows encode with scale 0 and decode
    exactly.
    """

    name = "q8"
    bytes_per_value = 1.0
    row_overhead_bytes = 2 * FLOAT32_BYTES
    nominal_accuracy_drop = 5e-3

    def encode(self, features: np.ndarray) -> EncodedFeatures:
        features = _as_features(features)
        lo = features.min(axis=1)
        scale = (features.max(axis=1) - lo) / 255.0
        safe = np.where(scale > 0, scale, 1.0)
        q = np.rint((features - lo[:, None]) / safe[:, None])
        q = np.clip(q, 0, 255).astype(np.uint8)
        payload = (lo.astype("<f4").tobytes()
                   + scale.astype("<f4").tobytes() + q.tobytes())
        return EncodedFeatures(self.name, features.shape, payload)

    def decode(self, encoded: EncodedFeatures) -> np.ndarray:
        n, d = encoded.shape
        header = FLOAT32_BYTES * n
        lo = np.frombuffer(encoded.payload[:header], dtype="<f4")
        scale = np.frombuffer(encoded.payload[header:2 * header], dtype="<f4")
        q = np.frombuffer(encoded.payload[2 * header:], dtype=np.uint8)
        q = q.reshape(n, d).astype(np.float32)
        return (q * scale[:, None] + lo[:, None]).astype(np.float32)


class ZlibCodec(FeatureCodec):
    """Wraps any base codec's payload in DEFLATE (``<base>+zlib``)."""

    def __init__(self, base: FeatureCodec):
        self.base = base
        self.name = f"{base.name}+zlib"
        # Compression is data-dependent; the estimate is the base size.
        self.bytes_per_value = base.bytes_per_value
        self.row_overhead_bytes = base.row_overhead_bytes
        self.nominal_accuracy_drop = base.nominal_accuracy_drop

    def encode(self, features: np.ndarray) -> EncodedFeatures:
        encoded = self.base.encode(features)
        return EncodedFeatures(self.name, encoded.shape,
                               zlib.compress(encoded.payload, ZLIB_LEVEL))

    def decode(self, encoded: EncodedFeatures) -> np.ndarray:
        inner = EncodedFeatures(self.base.name, encoded.shape,
                                zlib.decompress(encoded.payload))
        return self.base.decode(inner)


CODECS: dict[str, FeatureCodec] = {
    codec.name: codec
    for base in (FeatureCodec(), F16Codec(), Q8Codec())
    for codec in (base, ZlibCodec(base))}


def get_codec(name: str) -> FeatureCodec:
    """The codec called ``name``; ``KeyError`` naming the known ones."""
    try:
        return CODECS[name]
    except KeyError:
        raise KeyError(f"unknown feature codec {name!r}; known codecs: "
                       f"{sorted(CODECS)}") from None
