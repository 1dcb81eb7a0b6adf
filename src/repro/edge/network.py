"""Network model: the paper's gigabit switch with `tc`-capped 2 Mbps links.

Every device connects to a switch through its own full-duplex link, so
transfers from different devices proceed in parallel; transfers sharing a
link serialize.  The paper caps device bandwidth at 2 Mbps with Linux
``tc`` to mimic constrained deployments — :func:`tc_capped_link` mirrors
that configuration.
"""

from __future__ import annotations

import dataclasses
import math

BITS_PER_BYTE = 8

# Section V-A: "The maximum bandwidth between devices is capped at 2 Mbps".
TC_CAP_BPS = 2_000_000
# Per-message protocol/propagation overhead through one switch hop.
DEFAULT_OVERHEAD_S = 0.0002

# Section V-D constants.
RAW_IMAGE_BYTES = 224 * 224 * 3  # = 150528, the paper's per-image payload


@dataclasses.dataclass(frozen=True)
class LinkModel:
    """A point-to-point link with fixed bandwidth and per-message overhead."""

    bandwidth_bps: float = TC_CAP_BPS
    overhead_seconds: float = DEFAULT_OVERHEAD_S

    def __post_init__(self):
        if not (math.isfinite(self.bandwidth_bps) and self.bandwidth_bps > 0):
            raise ValueError(f"bandwidth_bps must be a finite rate above 0, "
                             f"not {self.bandwidth_bps}")
        if not (math.isfinite(self.overhead_seconds)
                and self.overhead_seconds >= 0):
            raise ValueError(f"overhead_seconds must be finite and at "
                             f"least 0, not {self.overhead_seconds}")

    def transfer_seconds(self, num_bytes: int) -> float:
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        if num_bytes == 0:
            return 0.0
        return num_bytes * BITS_PER_BYTE / self.bandwidth_bps + self.overhead_seconds


def tc_capped_link() -> LinkModel:
    """The paper's experimental link: 2 Mbps cap through the gigabit switch."""
    return LinkModel(bandwidth_bps=TC_CAP_BPS)


def communication_reduction(num_feature_bytes: int) -> float:
    """How much smaller the transmitted feature is than the raw image."""
    return RAW_IMAGE_BYTES / num_feature_bytes


@dataclasses.dataclass(frozen=True)
class StarTopology:
    """All devices attached to one switch; per-device dedicated links."""

    device_links: dict[str, LinkModel]

    def link_of(self, device_id: str) -> LinkModel:
        if device_id not in self.device_links:
            raise KeyError(f"device {device_id!r} not attached to topology")
        return self.device_links[device_id]

    def transfer_seconds(self, device_id: str, num_bytes: int) -> float:
        return self.link_of(device_id).transfer_seconds(num_bytes)


def uniform_star(device_ids: list[str],
                 link: LinkModel | None = None) -> StarTopology:
    link = link or tc_capped_link()
    return StarTopology(device_links={d: link for d in device_ids})
