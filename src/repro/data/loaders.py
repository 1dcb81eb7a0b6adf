"""Mini-batch iteration over in-memory datasets."""

from __future__ import annotations

from typing import Iterator

import numpy as np


class DataLoader:
    """Shuffled mini-batch iterator over (x, y) arrays.

    Each ``__iter__`` re-shuffles using the provided generator, so epochs
    see different orders but full runs stay reproducible.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, batch_size: int = 32,
                 shuffle: bool = True, rng: np.random.Generator | None = None):
        if len(x) != len(y):
            raise ValueError(f"x and y lengths differ: {len(x)} vs {len(y)}")
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        self.x = x
        self.y = y
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.rng = rng or np.random.default_rng(0)

    def __len__(self) -> int:
        return (len(self.x) + self.batch_size - 1) // self.batch_size

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        n = len(self.x)
        order = np.arange(n)
        if self.shuffle:
            self.rng.shuffle(order)
        for start in range(0, n, self.batch_size):
            idx = order[start:start + self.batch_size]
            yield self.x[idx], self.y[idx]
