"""Optimizers and learning-rate schedules.

The paper trains with Adam at an initial LR of 1e-4 with decay; we provide
Adam and a multiplicative-decay schedule, plus global gradient-norm
clipping (useful when finetuning pruned sub-models).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .modules import Parameter


class Optimizer:
    """Base class: holds the parameter list and the learning rate."""

    def __init__(self, params: Iterable[Parameter], lr: float):
        # Dedup by identity, preserving first-seen order: concatenated
        # param lists that share a module (e.g. sub-models + fusion) must
        # not step the shared parameter twice per step() or allocate
        # conflicting per-parameter optimizer state.
        seen: set[int] = set()
        self.params = []
        for p in params:
            if id(p) not in seen:
                seen.add(id(p))
                self.params.append(p)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        self.lr = lr

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


# Adam's moment decay rates and denominator floor (Kingma & Ba's defaults).
ADAM_BETA1, ADAM_BETA2 = 0.9, 0.999
ADAM_EPS = 1e-8
# Floor DecayingLR never decays the learning rate below.
MIN_LR = 1e-6


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2014) with bias correction."""

    def __init__(self, params: Iterable[Parameter], lr: float = 1e-4):
        super().__init__(params, lr)
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self._t
        bc2 = 1.0 - ADAM_BETA2 ** self._t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            grad = p.grad
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * grad
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * grad * grad
            m_hat = m / bc1
            v_hat = v / bc2
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


class DecayingLR:
    """Multiplicative learning-rate decay applied once per epoch.

    Matches the paper's "Adam optimizer with a decaying learning rate
    initialized to 1e-4" setup.
    """

    def __init__(self, optimizer: Optimizer, decay: float = 0.95):
        self.optimizer = optimizer
        self.decay = decay

    def step(self) -> None:
        self.optimizer.lr = max(self.optimizer.lr * self.decay, MIN_LR)


def clip_grad_norm(params: Iterable[Parameter], max_norm: float) -> float:
    """Scale gradients so their global L2 norm is at most ``max_norm``."""
    params = [p for p in params if p.grad is not None]
    total = float(np.sqrt(sum(float((p.grad ** 2).sum()) for p in params)))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for p in params:
            p.grad = p.grad * scale
    return total
