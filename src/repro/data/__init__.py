"""Synthetic dataset substrate (stands in for the paper's five benchmarks)."""

from .datasets import (
    caltech_like,
    cifar10_like,
    gtzan_like,
    mnist_like,
    speech_command_like,
)
from .loaders import DataLoader
from .synthetic import (
    Dataset,
    ImagePrototypeBank,
    SpectrogramPrototypeBank,
    SyntheticSpec,
    make_image_dataset,
    make_spectrogram_dataset,
    one_vs_rest_dataset,
)

__all__ = [
    "DataLoader",
    "Dataset",
    "ImagePrototypeBank",
    "SpectrogramPrototypeBank",
    "SyntheticSpec",
    "caltech_like",
    "cifar10_like",
    "gtzan_like",
    "make_image_dataset",
    "make_spectrogram_dataset",
    "mnist_like",
    "one_vs_rest_dataset",
    "speech_command_like",
]
