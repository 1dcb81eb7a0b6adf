"""Parameter initializers and the package-wide RNG convention.

All random state in the reproduction flows through explicit
``numpy.random.Generator`` objects so experiments are reproducible; the
module-level default generator exists only as a convenience for ad-hoc use.
It is created on first use: a process that only loads trained weights
(an edge worker) never imports ``numpy.random``.

Every initializer takes ``rng=None`` to mean that default generator, and
inside :func:`unwritten` draws nothing at all.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np

_DEFAULT_SEED = 0x5EED
# float64 values an initializer draws at once: it fills its float32 result
# chunk by chunk, so the only temporary is one chunk (512 KiB), not a
# float64 twin of the weight.  Draws are sequential either way, so the
# values and the generator's next draw do not depend on it.
DRAW_CHUNK = 1 << 16
_default_rng = None
_default_rng_lock = threading.Lock()
_local = threading.local()         # .unwritten: this thread builds to load


def default_rng() -> np.random.Generator:
    global _default_rng
    with _default_rng_lock:
        if _default_rng is None:
            _default_rng = np.random.default_rng(_DEFAULT_SEED)
        return _default_rng


@contextlib.contextmanager
def unwritten():
    """Build modules whose weights are allocated but never written.

    For a model that exists only to receive ``load_state_dict(strict=True)``:
    inside the block (on this thread) every initializer returns
    ``np.empty`` storage of the right shape and dtype and no generator is
    consulted, so construction costs no draws and the pages stay
    untouched until the real weights replace them.  Reading such a model
    before it is loaded reads garbage, so ``quantize_module`` inside the
    block sizes its int8 twins by shape and quantizes nothing.
    """
    previous = is_unwritten()
    _local.unwritten = True
    try:
        yield
    finally:
        _local.unwritten = previous


def is_unwritten() -> bool:
    """Whether this thread is inside :func:`unwritten`."""
    return getattr(_local, "unwritten", False)


def _drawn(shape: int | tuple[int, ...], draw) -> np.ndarray:
    """A float32 array of ``shape`` filled in C order from ``draw(k)``,
    which returns the next ``k`` float64 samples, :data:`DRAW_CHUNK` at a
    time."""
    out = np.empty(shape, dtype=np.float32)
    flat = out.reshape(-1)
    for start in range(0, flat.size, DRAW_CHUNK):
        chunk = flat[start:start + DRAW_CHUNK]
        chunk[...] = draw(chunk.size)
    return out


def uniform(rng: np.random.Generator | None, bound: float,
            shape: int | tuple[int, ...]) -> np.ndarray:
    """Float32 samples of U(-bound, bound)."""
    if is_unwritten():
        return np.empty(shape, dtype=np.float32)
    rng = rng or default_rng()
    return _drawn(shape, lambda k: rng.uniform(-bound, bound, size=k))


def kaiming_uniform(rng: np.random.Generator | None, shape: tuple[int, ...],
                    fan_in: int | None = None) -> np.ndarray:
    """He-uniform init matching ``torch.nn.Linear``'s default (a=sqrt(5))."""
    if fan_in is None:
        fan_in = shape[1] if len(shape) >= 2 else shape[0]
    gain = np.sqrt(2.0 / (1.0 + 5.0))  # leaky relu gain with a = sqrt(5)
    return uniform(rng, gain * np.sqrt(3.0 / fan_in), shape)


def trunc_normal(rng: np.random.Generator | None,
                 shape: tuple[int, ...]) -> np.ndarray:
    """N(0, 0.02) clipped at two standard deviations: ViT's token and
    positional embeddings."""
    if is_unwritten():
        return np.empty(shape, dtype=np.float32)
    rng = rng or default_rng()

    def draw(k: int) -> np.ndarray:
        values = rng.normal(0.0, 0.02, size=k)
        return np.clip(values, -0.04, 0.04, out=values)
    return _drawn(shape, draw)
