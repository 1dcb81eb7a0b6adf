"""Loss functions used by training, pruning and fusion stages."""

from __future__ import annotations

import numpy as np

from . import ops
from .tensor import Tensor


def cross_entropy(logits: Tensor, labels: np.ndarray,
                  label_smoothing: float = 0.0) -> Tensor:
    """Mean cross-entropy between logits (N, C) and integer labels (N,)."""
    labels = np.asarray(labels, dtype=np.int64)
    num_classes = logits.shape[-1]
    log_probs = ops.log_softmax(logits, axis=-1)
    target = ops.one_hot(labels, num_classes, dtype=log_probs.dtype)
    if label_smoothing > 0.0:
        target = target * (1.0 - label_smoothing) + label_smoothing / num_classes
    nll = -(log_probs * Tensor(target)).sum(axis=-1)
    return nll.mean()


def kl_divergence(p: np.ndarray, q: np.ndarray, eps: float = 1e-10,
                  axis: int = -1) -> np.ndarray:
    """KL(P || Q) between probability distributions along ``axis``.

    This is the importance metric of Section IV-C: P is the original model's
    output distribution, Q the pruned model's.  Returns the divergence per
    leading index (e.g. per sample), computed in float64 for stability.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    p = np.clip(p, eps, None)
    q = np.clip(q, eps, None)
    p = p / p.sum(axis=axis, keepdims=True)
    q = q / q.sum(axis=axis, keepdims=True)
    return (p * (np.log(p) - np.log(q))).sum(axis=axis)


def accuracy(logits: np.ndarray | Tensor, labels: np.ndarray) -> float:
    """Top-1 accuracy between logits (N, C) and integer labels (N,)."""
    arr = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    pred = arr.argmax(axis=-1)
    return float((pred == np.asarray(labels)).mean())
