"""Regression: the packed-weight cache prunes dead entries under its
lock (the weakref callback fires on whichever thread drops the last
array reference — PR 8 moved it into ``_prune_packed``), and a weight
that is already K-major never enters it."""

import gc

import numpy as np

from repro.nn.blocked import BlockedBackend


def test_dead_weight_is_pruned_from_the_pack_cache():
    backend = BlockedBackend(num_threads=1)
    weight = np.random.default_rng(0).normal(size=(64, 32)).astype(np.float32)
    key = id(weight)

    packed = backend._packed_transpose(weight)
    assert packed is not None
    assert key in backend._packed

    del weight, packed
    gc.collect()
    assert key not in backend._packed


def test_prune_is_safe_for_already_missing_keys():
    backend = BlockedBackend(num_threads=1)
    backend._prune_packed(12345)           # no entry: must not raise
    assert backend._packed == {}


def test_live_weight_survives_unrelated_prunes():
    backend = BlockedBackend(num_threads=1)
    weight = np.ones((16, 16), dtype=np.float32)
    backend._packed_transpose(weight)
    backend._prune_packed(id(weight) + 1)
    assert id(weight) in backend._packed
    np.testing.assert_array_equal(
        backend._packed_transpose(weight), weight.T)


def test_kmajor_weight_and_its_row_slices_bypass_the_cache():
    """``Linear`` holds its weight K-major once it serves, and the ViT
    CLS-only tail passes fresh row-slice views of it on every call: both
    are their own packed layout, so nothing is copied and nothing cached."""
    backend = BlockedBackend(num_threads=1)
    weight = np.asfortranarray(
        np.random.default_rng(0).normal(size=(48, 16)).astype(np.float32))
    for view in (weight, weight[16:], weight[:16]):
        packed = backend._packed_transpose(view)
        assert np.shares_memory(packed, weight)
        np.testing.assert_array_equal(packed, view.T)
    assert backend._packed == {}

    x = np.random.default_rng(1).normal(size=(5, 16)).astype(np.float32)
    np.testing.assert_allclose(backend.linear(x, weight[16:]),
                               x @ weight[16:].T, rtol=1e-5, atol=1e-5)
    assert backend._packed == {}


def test_kmajor_int8_weight_over_the_pack_limit_still_tiles():
    """A K-major int8 weight too big to widen whole keeps the tiled path:
    the fp32 scratch stays tile-sized, whatever the layout."""
    backend = BlockedBackend(num_threads=1, pack_limit=1 << 10)
    rng = np.random.default_rng(2)
    q8 = rng.integers(-127, 128, size=(96, 40), dtype=np.int8)
    scale = rng.uniform(0.01, 0.1, size=96).astype(np.float32)
    bias = rng.normal(size=96).astype(np.float32)
    x = rng.normal(size=(7, 40)).astype(np.float32)
    ref = backend.linear_q8(x, q8, scale, bias)
    out = backend.linear_q8(x, np.asfortranarray(q8), scale, bias)
    np.testing.assert_allclose(out, ref, rtol=1e-5, atol=1e-5)
    store = backend._scratch.store
    assert not any(tag == "q8_deq" for tag, _ in store)
    assert store[("q8_tile", "<f4")].size < q8.size
