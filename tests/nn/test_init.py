"""``nn.init``: float32 draws made chunk by chunk, with the values and the
generator state of one full-size float64 draw."""

import tracemalloc

import numpy as np
import pytest

from repro.nn import init

# What each initializer drew before it drew in chunks: one float64 array
# of the whole shape, cast once.
REFERENCES = {
    "uniform": (lambda rng, shape: init.uniform(rng, 0.05, shape),
                lambda rng, shape: rng.uniform(-0.05, 0.05, size=shape)
                .astype(np.float32)),
    "trunc_normal": (init.trunc_normal,
                     lambda rng, shape: np.clip(rng.normal(0.0, 0.02, shape),
                                                -0.04, 0.04)
                     .astype(np.float32)),
}
SHAPES = [(1536, 768), (3 * init.DRAW_CHUNK + 5,), (1, 65, 192), (0, 4)]


@pytest.mark.parametrize("name", REFERENCES)
@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_chunked_draw_equals_one_full_draw(name, shape):
    chunked, whole = REFERENCES[name]
    rng, reference_rng = np.random.default_rng(3), np.random.default_rng(3)
    drawn = chunked(rng, shape)
    expected = whole(reference_rng, shape)
    assert drawn.dtype == np.float32 and drawn.shape == expected.shape
    np.testing.assert_array_equal(drawn, expected)
    # The generator is left where the full-size draw left it.
    assert rng.random() == reference_rng.random()


@pytest.mark.parametrize("name", REFERENCES)
def test_a_weight_draw_holds_one_chunk_beside_its_result(name):
    """A 1536x768 weight (4.5 MiB of float32) peaked at 13.5 MiB while it
    was drawn as float64 and cast."""
    chunked, _ = REFERENCES[name]
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        chunked(rng, (1536, 768))
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= (1536 * 768 * 4) + (1 << 20), peak / 2**20
