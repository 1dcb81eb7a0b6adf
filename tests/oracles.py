"""Reference implementations that tests compare the library against.

``brute_force_assign`` enumerates every placement (tiny instances only)
as the oracle for branch-and-bound and greedy assignment, over sub-models
that ``sized_submodel`` builds;
``check_gradient`` compares autograd with central differences, over
the float64 leaves ``f64`` builds.
"""

from __future__ import annotations

import itertools
from typing import Callable

import numpy as np

from repro.assignment.problem import AssignmentPlan, PlannedSubModel
from repro.edge.device import DeviceModel
from repro.nn.tensor import Tensor


def f64(x, requires_grad: bool = False) -> Tensor:
    """A float64 leaf tensor, the precision gradient checks need (the
    public constructor casts float64 input down to float32)."""
    tensor = Tensor(np.zeros(0), requires_grad=requires_grad)
    tensor.data = np.asarray(x, dtype=np.float64)
    return tensor


def sized_submodel(model_id: str, size_bytes: int,
                   flops_per_sample: float) -> PlannedSubModel:
    """A sub-model that is only its size and FLOPs: all Algorithm 3 reads."""
    return PlannedSubModel(model_id=model_id, classes=(), hp=0,
                           size_bytes=size_bytes,
                           flops_per_sample=flops_per_sample, feature_dim=1,
                           model_kind="vit", model_config={})


def brute_force_assign(devices: list[DeviceModel],
                       submodels: list[PlannedSubModel],
                       num_samples: int) -> AssignmentPlan | None:
    """Plain product enumeration (tiny instances only)."""
    device_ids = [d.device_id for d in devices]
    best: AssignmentPlan | None = None
    for combo in itertools.product(device_ids, repeat=len(submodels)):
        memory = {d.device_id: d.memory_bytes for d in devices}
        energy = {d.device_id: float(d.energy_flops) for d in devices}
        ok = True
        for model, device_id in zip(submodels, combo):
            need = model.flops_per_sample * num_samples
            if memory[device_id] < model.size_bytes or energy[device_id] < need:
                ok = False
                break
            memory[device_id] -= model.size_bytes
            energy[device_id] -= need
        if not ok:
            continue
        plan = AssignmentPlan(
            mapping={m.model_id: d for m, d in zip(submodels, combo)},
            residual_memory=memory, residual_energy=energy)
        if best is None or plan.objective > best.objective:
            best = plan
    return best


def numerical_gradient(fn: Callable[[np.ndarray], float], x: np.ndarray,
                       eps: float = 1e-4) -> np.ndarray:
    """Central-difference gradient of a scalar function of ``x``."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        plus = fn(x)
        flat[i] = orig - eps
        minus = fn(x)
        flat[i] = orig
        gflat[i] = (plus - minus) / (2 * eps)
    return grad


def check_gradient(fn: Callable[[Tensor], Tensor], x: np.ndarray,
                   eps: float = 1e-4, rtol: float = 1e-2,
                   atol: float = 1e-4) -> tuple[bool, float]:
    """Compare autograd and numerical gradients of ``fn`` w.r.t. ``x``.

    ``fn`` maps a Tensor to a scalar Tensor.  Uses float64 throughout to
    keep the finite-difference noise below the tolerance.  Returns
    (ok, max_abs_error).
    """
    x64 = np.asarray(x, dtype=np.float64)
    tensor = f64(x64.copy(), requires_grad=True)
    out = fn(tensor)
    if out.size != 1:
        raise ValueError("fn must return a scalar")
    out.backward()
    analytic = tensor.grad.astype(np.float64)

    def scalar_fn(arr: np.ndarray) -> float:
        return float(fn(f64(arr.copy())).data)

    numeric = numerical_gradient(scalar_fn, x64.copy(), eps)
    err = np.abs(analytic - numeric)
    tol = atol + rtol * np.abs(numeric)
    return bool((err <= tol).all()), float(err.max())
