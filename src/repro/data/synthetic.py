"""Synthetic class-structured data generators.

The paper evaluates on CIFAR-10, MNIST, Caltech256, GTZAN and Speech
Command.  None are available offline, so we generate synthetic analogues
that preserve the property ED-ViT's accuracy experiments rely on: samples
carry class-discriminative structure of controllable difficulty, so a
classifier can reach high-but-imperfect accuracy, class-specific sub-models
can specialize, and fusion must reconcile overlapping predictions.

Two generator families are provided:

* **images** — each class owns a set of smooth spatial prototypes (random
  low-frequency Fourier fields) plus a class-coloured geometric marker;
  samples mix a prototype with instance noise and random shifts.
* **spectrograms** — each class owns a harmonic signature (frequency bands
  with class-specific spacing and rhythm), mimicking audio-classification
  structure (GTZAN genres / spoken commands).
"""

from __future__ import annotations

import dataclasses

import numpy as np

# Largest random roll, in pixels, applied to each image sample.
SHIFT_PIXELS = 1
# Low-frequency Fourier modes summed into one prototype field.
FIELD_MODES = 4


@dataclasses.dataclass(frozen=True)
class SyntheticSpec:
    """Knobs shared by both generator families."""

    num_classes: int = 10
    image_size: int = 32
    channels: int = 3
    prototypes_per_class: int = 2
    noise_std: float = 0.35
    class_seed: int = 1234


def _lowfreq_field(rng: np.random.Generator, size: int,
                   channels: int) -> np.ndarray:
    """A smooth random field built from a few low-frequency Fourier modes."""
    ys, xs = np.meshgrid(np.linspace(0, 2 * np.pi, size),
                         np.linspace(0, 2 * np.pi, size), indexing="ij")
    field = np.zeros((channels, size, size), dtype=np.float64)
    for c in range(channels):
        for _ in range(FIELD_MODES):
            fy, fx = rng.integers(1, 4, size=2)
            phase_y, phase_x = rng.uniform(0, 2 * np.pi, size=2)
            amp = rng.uniform(0.4, 1.0)
            field[c] += amp * np.sin(fy * ys + phase_y) * np.cos(fx * xs + phase_x)
    field /= max(1e-8, np.abs(field).max())
    return field


def _class_marker(rng: np.random.Generator, size: int, channels: int) -> np.ndarray:
    """A localized geometric marker (bar / blob / checker) unique per class."""
    marker = np.zeros((channels, size, size), dtype=np.float64)
    kind = rng.integers(0, 3)
    cy, cx = rng.integers(size // 4, 3 * size // 4, size=2)
    extent = max(2, size // 6)
    colour = rng.uniform(0.5, 1.0, size=channels) * rng.choice([-1.0, 1.0])
    if kind == 0:      # horizontal bar
        marker[:, cy - 1:cy + 2, max(0, cx - extent):cx + extent] = colour[:, None, None]
    elif kind == 1:    # blob
        ys, xs = np.ogrid[:size, :size]
        mask = (ys - cy) ** 2 + (xs - cx) ** 2 <= extent ** 2
        marker[:, mask] = colour[:, None]
    else:              # checker patch
        patch = np.indices((2 * extent, 2 * extent)).sum(axis=0) % 2
        y0, x0 = max(0, cy - extent), max(0, cx - extent)
        ph, pw = marker[0, y0:y0 + 2 * extent, x0:x0 + 2 * extent].shape
        marker[:, y0:y0 + ph, x0:x0 + pw] = colour[:, None, None] * patch[:ph, :pw]
    return marker


class ImagePrototypeBank:
    """Deterministic per-class prototypes for an image-like dataset."""

    def __init__(self, spec: SyntheticSpec):
        self.spec = spec
        rng = np.random.default_rng(spec.class_seed)
        self.prototypes = np.empty(
            (spec.num_classes, spec.prototypes_per_class, spec.channels,
             spec.image_size, spec.image_size), dtype=np.float64)
        for cls in range(spec.num_classes):
            for proto in range(spec.prototypes_per_class):
                field = _lowfreq_field(rng, spec.image_size, spec.channels)
                marker = _class_marker(rng, spec.image_size, spec.channels)
                self.prototypes[cls, proto] = 0.7 * field + 0.9 * marker

    def sample(self, rng: np.random.Generator, labels: np.ndarray) -> np.ndarray:
        spec = self.spec
        n = labels.shape[0]
        proto_idx = rng.integers(0, spec.prototypes_per_class, size=n)
        base = self.prototypes[labels, proto_idx]
        out = base + rng.normal(0.0, spec.noise_std, size=base.shape)
        if SHIFT_PIXELS > 0:
            shifts = rng.integers(-SHIFT_PIXELS, SHIFT_PIXELS + 1, size=(n, 2))
            for i in range(n):
                out[i] = np.roll(out[i], shift=tuple(shifts[i]), axis=(1, 2))
        return out.astype(np.float32)


class SpectrogramPrototypeBank:
    """Per-class harmonic signatures rendered as (1, F, T) spectrograms."""

    def __init__(self, spec: SyntheticSpec):
        if spec.channels != 1:
            raise ValueError("spectrogram datasets are single-channel")
        self.spec = spec
        rng = np.random.default_rng(spec.class_seed)
        size = spec.image_size
        self.base_freqs = rng.uniform(2.0, size / 4.0, size=spec.num_classes)
        self.harmonic_gaps = rng.uniform(1.5, 3.0, size=spec.num_classes)
        self.num_harmonics = rng.integers(2, 5, size=spec.num_classes)
        self.rhythm_hz = rng.uniform(0.5, 3.0, size=spec.num_classes)

    def _render(self, rng: np.random.Generator, cls: int) -> np.ndarray:
        size = self.spec.image_size
        spec_img = np.zeros((size, size), dtype=np.float64)
        t = np.linspace(0.0, 1.0, size)
        jitter = rng.normal(0.0, 0.5)
        for k in range(int(self.num_harmonics[cls])):
            freq_row = self.base_freqs[cls] * (1.0 + k * (self.harmonic_gaps[cls] - 1.0))
            row = int(np.clip(freq_row + jitter, 0, size - 1))
            envelope = 0.6 + 0.4 * np.sin(
                2 * np.pi * self.rhythm_hz[cls] * t + rng.uniform(0, 2 * np.pi))
            width = max(1, size // 32)
            lo, hi = max(0, row - width), min(size, row + width + 1)
            spec_img[lo:hi, :] += envelope[None, :] * (1.0 / (1 + k))
        return spec_img

    def sample(self, rng: np.random.Generator, labels: np.ndarray) -> np.ndarray:
        spec = self.spec
        n = labels.shape[0]
        out = np.empty((n, 1, spec.image_size, spec.image_size), dtype=np.float64)
        for i, cls in enumerate(labels):
            out[i, 0] = self._render(rng, int(cls))
        out += rng.normal(0.0, spec.noise_std, size=out.shape)
        return out.astype(np.float32)


@dataclasses.dataclass
class Dataset:
    """An in-memory labelled dataset with train/test splits."""

    name: str
    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    num_classes: int

    @property
    def image_shape(self) -> tuple[int, int, int]:
        return tuple(self.x_train.shape[1:])

    def subset_of_classes(self, classes: list[int]) -> "Dataset":
        """Restrict to a class subset — the ``resample`` of Algorithm 2.

        Labels are renumbered 0..len(classes)-1 in the order given, which
        is how each sub-model sees its classification problem.
        """
        classes = list(classes)
        mapping = {cls: i for i, cls in enumerate(classes)}
        train_mask = np.isin(self.y_train, classes)
        test_mask = np.isin(self.y_test, classes)
        y_tr = self.y_train[train_mask]
        y_te = self.y_test[test_mask]
        y_tr = np.vectorize(mapping.get)(y_tr) if y_tr.size else y_tr
        y_te = np.vectorize(mapping.get)(y_te) if y_te.size else y_te
        return Dataset(
            name=f"{self.name}[{','.join(map(str, classes))}]",
            x_train=self.x_train[train_mask], y_train=y_tr,
            x_test=self.x_test[test_mask], y_test=y_te,
            num_classes=len(classes))


def make_image_dataset(name: str, spec: SyntheticSpec, train_per_class: int,
                       test_per_class: int, seed: int) -> Dataset:
    bank = ImagePrototypeBank(spec)
    rng = np.random.default_rng(seed)

    def _make(per_class: int) -> tuple[np.ndarray, np.ndarray]:
        labels = np.repeat(np.arange(spec.num_classes), per_class)
        rng.shuffle(labels)
        return bank.sample(rng, labels), labels

    x_train, y_train = _make(train_per_class)
    x_test, y_test = _make(test_per_class)
    return Dataset(name, x_train, y_train, x_test, y_test, spec.num_classes)


def make_spectrogram_dataset(name: str, spec: SyntheticSpec, train_per_class: int,
                             test_per_class: int, seed: int) -> Dataset:
    bank = SpectrogramPrototypeBank(spec)
    rng = np.random.default_rng(seed)

    def _make(per_class: int) -> tuple[np.ndarray, np.ndarray]:
        labels = np.repeat(np.arange(spec.num_classes), per_class)
        rng.shuffle(labels)
        return bank.sample(rng, labels), labels

    x_train, y_train = _make(train_per_class)
    x_test, y_test = _make(test_per_class)
    return Dataset(name, x_train, y_train, x_test, y_test, spec.num_classes)


def one_vs_rest_dataset(dataset: Dataset, positive_class: int,
                        rng: np.random.Generator) -> Dataset:
    """Binary task for a single-class sub-model: own class vs the rest.

    A sub-model whose class subset is a singleton cannot be trained or
    KL-scored on a 1-way softmax (the loss and the output distribution are
    both degenerate), so it is trained one-vs-rest instead: label 1 for the
    positive class, label 0 for a balanced sample of the other classes.
    """

    def _make(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pos = np.flatnonzero(y == positive_class)
        neg = np.flatnonzero(y != positive_class)
        take = min(len(neg), max(1, len(pos)))
        neg = rng.choice(neg, size=take, replace=False)
        idx = np.concatenate([pos, neg])
        rng.shuffle(idx)
        labels = (y[idx] == positive_class).astype(np.int64)
        return x[idx], labels

    x_train, y_train = _make(dataset.x_train, dataset.y_train)
    x_test, y_test = _make(dataset.x_test, dataset.y_test)
    return Dataset(name=f"{dataset.name}[ovr:{positive_class}]",
                   x_train=x_train, y_train=y_train,
                   x_test=x_test, y_test=y_test, num_classes=2)
