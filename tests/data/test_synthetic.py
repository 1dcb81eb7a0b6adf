"""Synthetic data generator tests: determinism, class structure, subsetting."""

import numpy as np
import pytest

from repro.data import synthetic
from repro.data.synthetic import (
    Dataset,
    ImagePrototypeBank,
    SpectrogramPrototypeBank,
    SyntheticSpec,
    make_image_dataset,
    make_spectrogram_dataset,
)


def small_spec(**kw):
    defaults = dict(num_classes=4, image_size=16, channels=3, noise_std=0.3)
    defaults.update(kw)
    return SyntheticSpec(**defaults)


class TestImageBank:
    def test_prototypes_deterministic_per_class_seed(self):
        a = ImagePrototypeBank(small_spec(class_seed=9))
        b = ImagePrototypeBank(small_spec(class_seed=9))
        np.testing.assert_array_equal(a.prototypes, b.prototypes)

    def test_different_seed_different_prototypes(self):
        a = ImagePrototypeBank(small_spec(class_seed=1))
        b = ImagePrototypeBank(small_spec(class_seed=2))
        assert not np.allclose(a.prototypes, b.prototypes)

    def test_sample_shape_and_dtype(self):
        bank = ImagePrototypeBank(small_spec())
        x = bank.sample(np.random.default_rng(0), np.array([0, 1, 2]))
        assert x.shape == (3, 3, 16, 16)
        assert x.dtype == np.float32

    def test_same_class_samples_closer_than_cross_class(self, monkeypatch):
        monkeypatch.setattr(synthetic, "SHIFT_PIXELS", 0)
        spec = small_spec(noise_std=0.1, prototypes_per_class=1)
        bank = ImagePrototypeBank(spec)
        rng = np.random.default_rng(0)
        a1 = bank.sample(rng, np.zeros(8, dtype=int))
        a2 = bank.sample(rng, np.zeros(8, dtype=int))
        b = bank.sample(rng, np.ones(8, dtype=int))
        within = np.abs(a1 - a2).mean()
        across = np.abs(a1 - b).mean()
        assert within < across


class TestSpectrogramBank:
    def test_single_channel_enforced(self):
        with pytest.raises(ValueError):
            SpectrogramPrototypeBank(small_spec(channels=3))

    def test_sample_shape(self):
        bank = SpectrogramPrototypeBank(small_spec(channels=1))
        x = bank.sample(np.random.default_rng(0), np.array([0, 1]))
        assert x.shape == (2, 1, 16, 16)

    def test_classes_have_distinct_signatures(self):
        spec = small_spec(channels=1, noise_std=0.01)
        bank = SpectrogramPrototypeBank(spec)
        rng = np.random.default_rng(0)
        a = bank.sample(rng, np.zeros(4, dtype=int)).mean(axis=0)
        b = bank.sample(rng, np.full(4, 1, dtype=int)).mean(axis=0)
        assert np.abs(a - b).mean() > 0.01


class TestDatasetFactory:
    def test_reproducible_with_seed(self):
        a = make_image_dataset("t", small_spec(), 4, 2, seed=5)
        b = make_image_dataset("t", small_spec(), 4, 2, seed=5)
        np.testing.assert_array_equal(a.x_train, b.x_train)
        np.testing.assert_array_equal(a.y_train, b.y_train)

    def test_split_sizes(self):
        ds = make_image_dataset("t", small_spec(), 6, 3, seed=0)
        assert len(ds.x_train) == 4 * 6
        assert len(ds.x_test) == 4 * 3

    def test_balanced_labels(self):
        ds = make_image_dataset("t", small_spec(), 5, 2, seed=0)
        _, counts = np.unique(ds.y_train, return_counts=True)
        assert (counts == 5).all()

    def test_image_shape_property(self):
        ds = make_image_dataset("t", small_spec(), 2, 1, seed=0)
        assert ds.image_shape == (3, 16, 16)

    def test_spectrogram_dataset(self):
        ds = make_spectrogram_dataset("a", small_spec(channels=1), 3, 2, seed=0)
        assert ds.image_shape == (1, 16, 16)
        assert ds.num_classes == 4


class TestSubsetOfClasses:
    def make(self):
        return make_image_dataset("t", small_spec(), 4, 2, seed=0)

    def test_filters_samples(self):
        sub = self.make().subset_of_classes([1, 3])
        assert len(sub.x_train) == 8
        assert set(np.unique(sub.y_train)) == {0, 1}

    def test_remap_follows_given_order(self):
        ds = self.make()
        sub = ds.subset_of_classes([3, 1])
        # class 3 -> 0, class 1 -> 1
        original = ds.y_train[np.isin(ds.y_train, [1, 3])]
        np.testing.assert_array_equal(sub.y_train == 0, original == 3)

    def test_num_classes_after_remap(self):
        assert self.make().subset_of_classes([0, 2]).num_classes == 2

    def test_name_records_classes(self):
        assert "1,3" in self.make().subset_of_classes([1, 3]).name


class TestOneVsRestDataset:
    def make(self):
        from repro.data.synthetic import make_image_dataset

        spec = small_spec()
        return make_image_dataset("t", spec, 8, 4, seed=0)

    def test_binary_labels(self):
        import numpy as np
        from repro.data.synthetic import one_vs_rest_dataset

        ds = one_vs_rest_dataset(self.make(), 2, np.random.default_rng(0))
        assert ds.num_classes == 2
        assert set(np.unique(ds.y_train)) == {0, 1}

    def test_balanced_by_default(self):
        import numpy as np
        from repro.data.synthetic import one_vs_rest_dataset

        ds = one_vs_rest_dataset(self.make(), 1, np.random.default_rng(0))
        positives = int((ds.y_train == 1).sum())
        negatives = int((ds.y_train == 0).sum())
        assert positives == negatives

    def test_positive_samples_come_from_class(self):
        import numpy as np
        from repro.data.synthetic import one_vs_rest_dataset

        base = self.make()
        ds = one_vs_rest_dataset(base, 3, np.random.default_rng(0))
        # every positive sample exists in the base class-3 pool
        pool = base.x_train[base.y_train == 3]
        for x in ds.x_train[ds.y_train == 1]:
            assert any(np.array_equal(x, p) for p in pool)

