"""Feature wire-codec round trips, error bounds, and byte accounting."""

import numpy as np
import pytest

from repro.edge.codec import CODECS, EncodedFeatures, ZlibCodec, get_codec

RNG = np.random.default_rng(7)
FEATURES = RNG.normal(scale=3.0, size=(17, 33)).astype(np.float32)


class TestRaw32:
    def test_round_trip_is_exact(self):
        codec = get_codec("raw32")
        out = codec.decode(codec.encode(FEATURES))
        np.testing.assert_array_equal(out, FEATURES)
        assert out.dtype == np.float32

    def test_bytes_are_4_per_value(self):
        encoded = get_codec("raw32").encode(FEATURES)
        assert encoded.nbytes == FEATURES.size * 4
        assert 17 * get_codec("raw32").estimate_bytes(33) == encoded.nbytes

    def test_non_float32_input_is_canonicalized(self):
        codec = get_codec("raw32")
        out = codec.decode(codec.encode(FEATURES.astype(np.float64)))
        np.testing.assert_array_equal(out, FEATURES)


class TestF16:
    def test_round_trip_error_bound(self):
        codec = get_codec("f16")
        out = codec.decode(codec.encode(FEATURES))
        # Half precision: ~2^-11 relative error.
        np.testing.assert_allclose(out, FEATURES, rtol=1e-3, atol=1e-4)

    def test_halves_the_bytes(self):
        encoded = get_codec("f16").encode(FEATURES)
        assert encoded.nbytes == FEATURES.size * 2


class TestQ8:
    def test_error_bounded_by_half_a_step(self):
        codec = get_codec("q8")
        out = codec.decode(codec.encode(FEATURES))
        step = (FEATURES.max(axis=1) - FEATURES.min(axis=1)) / 255.0
        bound = step[:, None] * 0.5 + 1e-5
        assert (np.abs(out - FEATURES) <= bound).all()

    def test_constant_rows_decode_exactly(self):
        codec = get_codec("q8")
        constant = np.full((3, 9), 2.5, dtype=np.float32)
        np.testing.assert_array_equal(codec.decode(codec.encode(constant)),
                                      constant)

    def test_bytes_one_per_value_plus_row_header(self):
        encoded = get_codec("q8").encode(FEATURES)
        n, d = FEATURES.shape
        assert encoded.nbytes == n * (d + 8)
        assert n * get_codec("q8").estimate_bytes(d) == encoded.nbytes

    def test_strictly_smaller_than_f16_and_raw32(self):
        sizes = {name: get_codec(name).encode(FEATURES).nbytes
                 for name in ("raw32", "f16", "q8")}
        assert sizes["q8"] < sizes["f16"] < sizes["raw32"]


SHAPES = ((1, 1), (1, 192), (5, 37), (17, 33), (64, 8))


@pytest.mark.parametrize("name", ("raw32", "f16", "q8"))
@pytest.mark.parametrize("n, d", SHAPES)
def test_payload_is_exactly_the_estimate(name, n, d):
    """The planner's DES charges ``n * estimate_bytes(d)`` per batch: for
    the base codecs that is the wire size to the byte."""
    codec = get_codec(name)
    x = np.random.default_rng(n * d).normal(size=(n, d)).astype(np.float32)
    assert len(codec.encode(x).payload) == n * codec.estimate_bytes(d)


def _zlib_bound(size: int) -> int:
    """zlib's ``compressBound``: the most ``zlib.compress`` can emit for
    ``size`` input bytes (stored blocks plus header and checksum)."""
    return size + (size >> 12) + (size >> 14) + (size >> 25) + 13


class TestZlibWrapper:
    def test_round_trip_matches_base(self):
        for base in ("raw32", "f16", "q8"):
            wrapped = get_codec(base + "+zlib")
            plain = get_codec(base)
            np.testing.assert_array_equal(
                wrapped.decode(wrapped.encode(FEATURES)),
                plain.decode(plain.encode(FEATURES)))

    def test_compresses_redundant_payloads(self):
        redundant = np.tile(FEATURES[:1], (16, 1))
        assert get_codec("raw32+zlib").encode(redundant).nbytes \
            < get_codec("raw32").encode(redundant).nbytes

    def test_estimate_is_the_base_size(self):
        assert get_codec("q8+zlib").estimate_bytes(33) \
            == get_codec("q8").estimate_bytes(33)

    @pytest.mark.parametrize("name", ("raw32", "f16", "q8"))
    @pytest.mark.parametrize("n, d", SHAPES)
    def test_payload_is_bounded_by_zlib_framing_over_the_estimate(
            self, name, n, d):
        """Noise-like features barely compress, so the wrapper may send
        more than its estimate; never more than zlib's own bound."""
        codec = get_codec(name + "+zlib")
        x = np.random.default_rng(n * d).normal(size=(n, d)).astype(np.float32)
        assert len(codec.encode(x).payload) \
            <= _zlib_bound(n * codec.estimate_bytes(d))

    def test_estimate_is_not_an_upper_bound(self):
        """Measured on a 5 x 37 normal array: f16+zlib sends 381 B against
        370 B estimated, q8+zlib 236 B against 225 B."""
        x = np.random.default_rng(0).normal(size=(5, 37)).astype(np.float32)
        for name in ("f16", "q8"):
            codec = get_codec(name + "+zlib")
            assert len(codec.encode(x).payload) \
                > 5 * codec.estimate_bytes(37)


class TestRegistry:
    def test_unknown_codec_raises_with_choices(self):
        with pytest.raises(KeyError, match="unknown feature codec.*q8\\+zlib"):
            get_codec("brotli")

    def test_codec_names_cover_zlib_variants(self):
        assert set(CODECS) == {"raw32", "f16", "q8", "raw32+zlib",
                               "f16+zlib", "q8+zlib"}
        for name, codec in CODECS.items():
            assert codec.name == name
            assert isinstance(codec, ZlibCodec) == name.endswith("+zlib")

    def test_non_2d_input_rejected(self):
        with pytest.raises(ValueError, match=r"\(N, D\)"):
            get_codec("raw32").encode(np.zeros((2, 3, 4), dtype=np.float32))

    def test_encoded_features_reports_wire_bytes(self):
        encoded = EncodedFeatures("raw32", (1, 2), b"12345678")
        assert encoded.nbytes == 8
