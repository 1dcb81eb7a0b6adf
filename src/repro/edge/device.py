"""Edge-device performance model calibrated against the paper's testbed.

The paper measures single-sample inference latency on Raspberry Pi 4B
boards (Table I).  Latency there is compute-bound, so we model a device as
an effective MAC throughput plus memory/energy budgets.  The throughput
constant is calibrated so that ViT-Base's analytic MAC count maps exactly
to the paper's measured 36.94 s; ViT-Small and ViT-Large then land at
9.71 s (+0.9 % on 9.63 s) and 129.3 s (+8.8 % on 118.8 s), as
``tests/edge/test_device.py::TestCalibration`` asserts.
"""

from __future__ import annotations

import dataclasses
import math

from ..models.vit import vit_base_config
from ..profiling import paper_flops

# Paper Table I: ViT-Base takes 36.94 s on a Raspberry Pi 4B.
_VIT_BASE_LATENCY_S = 36.94
PI4B_MACS_PER_SECOND = paper_flops(vit_base_config()) / _VIT_BASE_LATENCY_S

# Raspberry Pi 4B (4 GB variant): usable application memory.
PI4B_MEMORY_BYTES = 4 * 2 ** 30

# Default per-device energy budget expressed as FLOPs, following the
# paper's formulation (E_i in Eq. 1).  Chosen to be ample for single-sample
# workloads; experiments override it when studying energy pressure.
PI4B_ENERGY_FLOPS = 100e9

# Joules per MAC for a Raspberry-Pi-class in-order ARM core (the paper
# treats energy as proportional to MAC count).  Only relative values matter
# to the assignment's energy constraint; this sets a physical scale:
# ~5 W at the calibrated throughput above.
JOULES_PER_MAC = 1.1e-8


@dataclasses.dataclass(frozen=True)
class DeviceModel:
    """A simulated edge device: compute throughput plus the memory and
    energy budgets (the paper's M_i and E_i) Algorithm 3 places into."""

    device_id: str
    macs_per_second: float = PI4B_MACS_PER_SECOND
    memory_bytes: int = PI4B_MEMORY_BYTES
    energy_flops: float = PI4B_ENERGY_FLOPS

    def __post_init__(self):
        if not (math.isfinite(self.macs_per_second)
                and self.macs_per_second > 0):
            raise ValueError(f"macs_per_second must be a finite rate above "
                             f"0, not {self.macs_per_second}")
        if self.memory_bytes <= 0:
            raise ValueError("memory_bytes must be positive")
        if self.energy_flops <= 0:
            raise ValueError("energy_flops must be positive")

    def compute_seconds(self, macs: float) -> float:
        """Wall-clock seconds to execute ``macs`` multiply-accumulates."""
        if macs < 0:
            raise ValueError("macs must be non-negative")
        return macs / self.macs_per_second


def raspberry_pi_4b(device_id: str) -> DeviceModel:
    return DeviceModel(device_id=device_id)


def make_fleet(count: int, **overrides) -> list[DeviceModel]:
    """A homogeneous fleet of Raspberry-Pi-class devices ``pi-0`` ..."""
    return [DeviceModel(device_id=f"pi-{i}", **overrides)
            for i in range(count)]
