"""Checkpoint save/load using ``.npz`` archives.

A checkpoint stores the flat state dict plus an optional JSON-serializable
config blob so a model can be reconstructed without outside knowledge
(needed when sub-models are shipped to emulated edge devices).
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import numpy as np

from .modules import Module

_CONFIG_KEY = "__config_json__"


def checkpoint_path(path: str | Path) -> Path:
    """The on-disk path a checkpoint lands at, ``.npz`` suffix included.

    ``np.savez_compressed`` appends ``.npz`` when the path lacks the
    suffix, so save and load must agree on one normalized name — a caller
    passing the same suffix-less path to both must round-trip.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    return path


def save_checkpoint(model: Module, path: str | Path, config: dict | None = None) -> Path:
    """Write ``model``'s state (plus optional config blob) as an ``.npz``.

    Returns the normalized path actually written (see
    :func:`checkpoint_path`).
    """
    state = model.state_dict()
    if _CONFIG_KEY in state:
        raise ValueError(
            f"state dict key {_CONFIG_KEY!r} collides with the checkpoint "
            "config sentinel; rename that parameter")
    payload = dict(state)
    if config is not None:
        payload[_CONFIG_KEY] = np.frombuffer(
            json.dumps(config, allow_nan=False).encode("utf-8"),
            dtype=np.uint8)
    path = checkpoint_path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, **payload)
    return path


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], dict | None]:
    """Return (state_dict, config) from a checkpoint file."""
    with np.load(checkpoint_path(path), allow_pickle=False) as archive:
        state = {}
        config = None
        for key in archive.files:
            if key == _CONFIG_KEY:
                config = json.loads(archive[key].tobytes().decode("utf-8"))
            else:
                state[key] = archive[key]
    return state, config


def state_dict_num_bytes(state: dict[str, np.ndarray]) -> int:
    return sum(v.nbytes for v in state.values())


def state_dict_to_bytes(state: dict[str, np.ndarray]) -> bytes:
    """Serialize a state dict to raw bytes (used by the edge runtime)."""
    buf = io.BytesIO()
    np.savez(buf, **state)
    return buf.getvalue()


def state_dict_from_bytes(payload: bytes) -> dict[str, np.ndarray]:
    with np.load(io.BytesIO(payload), allow_pickle=False) as archive:
        return {key: archive[key] for key in archive.files}
