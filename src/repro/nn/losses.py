"""Loss functions used by training, pruning and fusion stages."""

from __future__ import annotations

import numpy as np

from . import ops
from .tensor import Tensor

# Floor on a probability inside kl_divergence.
KL_EPS = 1e-10


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy between logits (N, C) and integer labels (N,)."""
    labels = np.asarray(labels, dtype=np.int64)
    num_classes = logits.shape[-1]
    log_probs = ops.log_softmax(logits, axis=-1)
    target = ops.one_hot(labels, num_classes, dtype=log_probs.dtype)
    nll = -(log_probs * Tensor(target)).sum(axis=-1)
    return nll.mean()


def kl_divergence(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """KL(P || Q) between probability distributions along the last axis.

    This is the importance metric of Section IV-C: P is the original model's
    output distribution, Q the pruned model's.  Returns the divergence per
    leading index (e.g. per sample), computed in float64 for stability;
    probabilities are floored at ``KL_EPS`` so a zero never gives inf.
    """
    p = np.clip(np.asarray(p, dtype=np.float64), KL_EPS, None)
    q = np.clip(np.asarray(q, dtype=np.float64), KL_EPS, None)
    p = p / p.sum(axis=-1, keepdims=True)
    q = q / q.sum(axis=-1, keepdims=True)
    return (p * (np.log(p) - np.log(q))).sum(axis=-1)


def accuracy(logits: np.ndarray | Tensor, labels: np.ndarray) -> float:
    """Top-1 accuracy between logits (N, C) and integer labels (N,)."""
    arr = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    pred = arr.argmax(axis=-1)
    return float((pred == np.asarray(labels)).mean())
