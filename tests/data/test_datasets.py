"""Named dataset factory tests: the five paper-benchmark analogues."""

import numpy as np

from repro.data.datasets import (
    caltech_like,
    cifar10_like,
    gtzan_like,
    mnist_like,
    speech_command_like,
)


class TestFactories:
    def test_cifar_is_rgb_10_classes(self):
        ds = cifar10_like(image_size=16, train_per_class=2, test_per_class=1)
        assert ds.num_classes == 10
        assert ds.image_shape == (3, 16, 16)

    def test_mnist_is_grayscale(self):
        ds = mnist_like(image_size=16, train_per_class=2, test_per_class=1)
        assert ds.image_shape == (1, 16, 16)

    def test_caltech_configurable_classes(self):
        ds = caltech_like(num_classes=20, image_size=16, train_per_class=2,
                          test_per_class=1)
        assert ds.num_classes == 20

    def test_gtzan_is_audio_like(self):
        ds = gtzan_like(image_size=16, train_per_class=2, test_per_class=1)
        assert ds.num_classes == 10
        assert ds.image_shape == (1, 16, 16)

    def test_speech_command_default_12_classes(self):
        ds = speech_command_like(image_size=16, train_per_class=2,
                                 test_per_class=1)
        assert ds.num_classes == 12

    def test_224_resolution_supported(self):
        ds = cifar10_like(image_size=224, train_per_class=1, test_per_class=1)
        assert ds.image_shape == (3, 224, 224)


class TestRegistry:
    def test_distinct_datasets_have_distinct_content(self):
        a = cifar10_like(image_size=16, train_per_class=2, test_per_class=1)
        b = caltech_like(num_classes=10, image_size=16, train_per_class=2,
                         test_per_class=1)
        assert not np.allclose(a.x_train[:4], b.x_train[:4])
