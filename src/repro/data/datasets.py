"""Named dataset factories mirroring the paper's five benchmarks.

Each factory returns a synthetic analogue with matching class count and
modality (Section V-A).  The paper resizes all samples to 224×224; we keep
the default at 32×32 for tractable CPU training — pass ``image_size=224``
for profiling-scale data.  Sample counts are similarly scaled down but
configurable.
"""

from __future__ import annotations

from .synthetic import Dataset, SyntheticSpec, make_image_dataset, make_spectrogram_dataset

DEFAULT_IMAGE_SIZE = 32
DEFAULT_TRAIN_PER_CLASS = 64
DEFAULT_TEST_PER_CLASS = 24


def cifar10_like(image_size: int = DEFAULT_IMAGE_SIZE,
                 train_per_class: int = DEFAULT_TRAIN_PER_CLASS,
                 test_per_class: int = DEFAULT_TEST_PER_CLASS,
                 noise_std: float = 0.4, seed: int = 7) -> Dataset:
    """10-class RGB natural-image analogue (CIFAR-10)."""
    spec = SyntheticSpec(num_classes=10, image_size=image_size, channels=3,
                         noise_std=noise_std, class_seed=101)
    return make_image_dataset("cifar10-like", spec, train_per_class,
                              test_per_class, seed)


def mnist_like(image_size: int = DEFAULT_IMAGE_SIZE,
               train_per_class: int = DEFAULT_TRAIN_PER_CLASS,
               test_per_class: int = DEFAULT_TEST_PER_CLASS) -> Dataset:
    """10-class grayscale digit analogue (MNIST): cleaner than CIFAR-like."""
    spec = SyntheticSpec(num_classes=10, image_size=image_size, channels=1,
                         noise_std=0.4, prototypes_per_class=2,
                         class_seed=202)
    return make_image_dataset("mnist-like", spec, train_per_class,
                              test_per_class, seed=8)


def caltech_like(num_classes: int = 16, image_size: int = DEFAULT_IMAGE_SIZE,
                 train_per_class: int = 32,
                 test_per_class: int = 12) -> Dataset:
    """Many-class object analogue (Caltech256, scaled to ``num_classes``)."""
    spec = SyntheticSpec(num_classes=num_classes, image_size=image_size,
                         channels=3, noise_std=0.5,
                         prototypes_per_class=3, class_seed=303)
    return make_image_dataset("caltech-like", spec, train_per_class,
                              test_per_class, seed=9)


def gtzan_like(image_size: int = DEFAULT_IMAGE_SIZE,
               train_per_class: int = DEFAULT_TRAIN_PER_CLASS,
               test_per_class: int = DEFAULT_TEST_PER_CLASS) -> Dataset:
    """10-genre audio-spectrogram analogue (GTZAN), single channel."""
    spec = SyntheticSpec(num_classes=10, image_size=image_size, channels=1,
                         noise_std=0.35, class_seed=404)
    return make_spectrogram_dataset("gtzan-like", spec, train_per_class,
                                    test_per_class, seed=10)


def speech_command_like(num_classes: int = 12,
                        image_size: int = DEFAULT_IMAGE_SIZE,
                        train_per_class: int = DEFAULT_TRAIN_PER_CLASS,
                        test_per_class: int = DEFAULT_TEST_PER_CLASS) -> Dataset:
    """Spoken-keyword spectrogram analogue (Speech Commands)."""
    spec = SyntheticSpec(num_classes=num_classes, image_size=image_size,
                         channels=1, noise_std=0.3, class_seed=505)
    return make_spectrogram_dataset("speech-command-like", spec,
                                    train_per_class, test_per_class, seed=11)
