"""Training and evaluation loops shared by every model in the reproduction.

The paper trains with Adam (initial LR 1e-4, decaying) — we default to the
same recipe, scaled to the synthetic workloads.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from .. import nn
from ..data.loaders import DataLoader


# The learning rate decays by this factor after every epoch, and the
# gradient norm is clipped to GRAD_CLIP before every step.
LR_DECAY = 0.95
GRAD_CLIP = 5.0


@dataclasses.dataclass
class TrainConfig:
    epochs: int = 10
    batch_size: int = 32
    lr: float = 1e-3
    seed: int = 0


@dataclasses.dataclass
class TrainResult:
    train_losses: list[float]
    train_accuracies: list[float]
    wall_seconds: float

    @property
    def final_accuracy(self) -> float:
        return self.train_accuracies[-1]


def train_classifier(model: nn.Module, x: np.ndarray, y: np.ndarray,
                     config: TrainConfig | None = None) -> TrainResult:
    """Train ``model`` to classify (x, y); returns per-epoch curves."""
    config = config or TrainConfig()
    rng = np.random.default_rng(config.seed)
    loader = DataLoader(x, y, batch_size=config.batch_size, shuffle=True, rng=rng)
    optimizer = nn.Adam(model.parameters(), lr=config.lr)
    schedule = nn.DecayingLR(optimizer, decay=LR_DECAY)

    model.train()
    losses: list[float] = []
    accuracies: list[float] = []
    start = time.perf_counter()
    for _ in range(config.epochs):
        epoch_loss = 0.0
        correct = 0
        seen = 0
        for xb, yb in loader:
            logits = model(nn.Tensor(xb))
            loss = nn.cross_entropy(logits, yb)
            optimizer.zero_grad()
            loss.backward()
            nn.clip_grad_norm(model.parameters(), GRAD_CLIP)
            optimizer.step()
            batch = len(yb)
            epoch_loss += loss.item() * batch
            correct += int((logits.data.argmax(axis=-1) == yb).sum())
            seen += batch
        schedule.step()
        losses.append(epoch_loss / max(1, seen))
        accuracies.append(correct / max(1, seen))
    model.eval()
    return TrainResult(losses, accuracies, time.perf_counter() - start)
