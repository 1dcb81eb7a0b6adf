"""Batched graph-free inference entrypoints shared by every consumer.

This module is the single place the reproduction runs models *forward
only*: the training loop's evaluation, the edge runtime workers, the fusion
helpers, and both Split-CNN/Split-SNN baselines all route through
:func:`predict` instead of hand-rolled per-sample loops.  It runs under
``nn.inference_mode()`` — the graph-free fast path with module workspace
reuse — and copies every batch output, so results stay valid after the
next forward overwrites the workspaces.

``data`` may be a plain array, a :class:`~repro.data.loaders.DataLoader`,
or any iterable yielding batches (bare ``x`` or ``(x, y)`` tuples).
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

import numpy as np

from .. import nn


def iter_batches(data, batch_size: int = 64) -> Iterator[np.ndarray]:
    """Yield input batches from an array, DataLoader, or batch iterable."""
    if isinstance(data, np.ndarray):
        for start in range(0, len(data), batch_size):
            yield data[start:start + batch_size]
        return
    if isinstance(data, nn.Tensor):
        yield from iter_batches(data.data, batch_size)
        return
    for item in data:
        if isinstance(item, tuple):
            item = item[0]
        yield np.asarray(item)


def predict(model: nn.Module, data, batch_size: int = 64, *,
            forward: Callable | None = None,
            keep_workspaces: bool = False) -> np.ndarray:
    """Run ``model`` forward over ``data`` in batches, graph-free.

    Puts the model in eval mode, executes under ``nn.inference_mode()``
    (workspace-cached fast path), and returns the stacked, caller-owned
    outputs.  ``forward`` overrides the callable applied per batch
    (default ``model``; pass e.g. ``model.forward_features``).

    By default the model's workspace scratch is released afterwards, so
    one-shot callers don't keep batch-sized buffers alive for the model's
    lifetime.  Long-lived servers that call ``predict`` repeatedly with
    the same batch shape (e.g. the edge runtime workers) pass
    ``keep_workspaces=True`` to retain the warm buffers.
    """
    if model.training:                 # a served model is already in eval
        model.eval()
    apply = forward if forward is not None else model
    outputs = []
    try:
        with nn.inference_mode():
            for xb in iter_batches(data, batch_size):
                # nn.Tensor (not _noback) keeps the seed's input
                # normalization: float64 batches cast down to float32.
                out = apply(nn.Tensor(np.asarray(xb)))
                outputs.append(out.data.copy())
    finally:
        if not keep_workspaces:
            model.clear_workspaces()
    if not outputs:
        raise ValueError("predict() received no data")
    if len(outputs) == 1:
        return outputs[0]
    return np.concatenate(outputs, axis=0)


def split_batch(outputs: np.ndarray, sizes: "Iterable[int]") -> list[np.ndarray]:
    """Slice a coalesced batch output back into per-request chunks.

    The serving layer's dynamic batcher concatenates several requests into
    one fused forward; this is the inverse, returning one caller-owned view
    per request (``sizes`` are the per-request sample counts, in dispatch
    order).  The sizes must tile ``outputs`` exactly.
    """
    sizes = list(sizes)
    total = sum(sizes)
    if total != len(outputs):
        raise ValueError(f"sizes sum to {total} but batch has {len(outputs)} "
                         "samples")
    chunks: list[np.ndarray] = []
    start = 0
    for size in sizes:
        chunks.append(outputs[start:start + size])
        start += size
    return chunks


def predict_labels(model: nn.Module, x) -> np.ndarray:
    """Argmax class predictions."""
    return predict(model, x).argmax(axis=-1)


def predict_probabilities(model: nn.Module, x) -> np.ndarray:
    """Softmax class probabilities (computed in numpy, stable-shifted)."""
    logits = predict(model, x)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    np.exp(shifted, out=shifted)
    shifted /= shifted.sum(axis=-1, keepdims=True)
    return shifted


def extract_features(model, x, batch_size: int = 64,
                     keep_workspaces: bool = False) -> np.ndarray:
    """Run ``model.forward_features`` batched (sub-model feature maps)."""
    return predict(model, x, batch_size, forward=model.forward_features,
                   keep_workspaces=keep_workspaces)


def evaluate(model: nn.Module, x, y: np.ndarray) -> float:
    """Top-1 test accuracy."""
    return float((predict_labels(model, x) == np.asarray(y)).mean())
