"""DataLoader tests."""

import numpy as np
import pytest

from repro.data.loaders import DataLoader


def make_data(n=10):
    x = np.arange(n, dtype=np.float32).reshape(n, 1)
    y = np.arange(n, dtype=np.int64)
    return x, y


class TestDataLoader:
    def test_batch_count_without_drop(self):
        x, y = make_data(10)
        assert len(DataLoader(x, y, batch_size=3)) == 4

    def test_covers_all_samples(self):
        x, y = make_data(10)
        seen = []
        for xb, yb in DataLoader(x, y, batch_size=3, shuffle=True,
                                 rng=np.random.default_rng(0)):
            seen.extend(yb.tolist())
        assert sorted(seen) == list(range(10))

    def test_x_y_stay_aligned(self):
        x, y = make_data(20)
        for xb, yb in DataLoader(x, y, batch_size=4, shuffle=True,
                                 rng=np.random.default_rng(1)):
            np.testing.assert_array_equal(xb[:, 0].astype(np.int64), yb)

    def test_no_shuffle_keeps_order(self):
        x, y = make_data(6)
        first_batch = next(iter(DataLoader(x, y, batch_size=3, shuffle=False)))
        np.testing.assert_array_equal(first_batch[1], [0, 1, 2])

    def test_reshuffles_between_epochs(self):
        x, y = make_data(32)
        loader = DataLoader(x, y, batch_size=32, shuffle=True,
                            rng=np.random.default_rng(2))
        first = next(iter(loader))[1].copy()
        second = next(iter(loader))[1].copy()
        assert not np.array_equal(first, second)

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            DataLoader(np.zeros((3, 1)), np.zeros(4))

    def test_invalid_batch_size_raises(self):
        x, y = make_data(4)
        with pytest.raises(ValueError):
            DataLoader(x, y, batch_size=0)
