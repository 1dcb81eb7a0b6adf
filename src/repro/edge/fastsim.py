"""The simulator's model, vectorised over the fleet.

Every sample simulated by :func:`repro.edge.simulator.simulate_inference`
follows the same deterministic chain through FIFO resources — device
compute → feature transfer → fusion barrier → fusion compute — so
fleet-scale runs do not need a Python step per (sample, sub-model).  For
a FIFO resource the finish times obey the Lindley recurrence

    ``finish_i = max(ready_i, finish_{i-1}) + service_i``

and because every device owns its CPU and uplink independently, the
recurrence advances for the *whole fleet at once* with ``np.maximum`` and
adds, one short numpy step per (sample, sub-model slot).  Per device the
operations are applied in the order and with the float64 arithmetic
(``max`` then ``+``) of the per-request reference loop
(``simulate_inference(..., engine="event")``), so every field of the
result is **equal** to the reference's, not merely close — the fastsim
tests (up to 1000 devices) and the property suite assert it with ``==``.
(A closed form via cumulative max/sum would be algebraically equal but
not bit-exact: float addition is not associative.)
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .device import DeviceModel
from .simulator import DeploymentSpec, SimulationResult, SubModelProfile


def simulate_star(spec: DeploymentSpec, arrivals: Sequence[float],
                  lanes: list[tuple[DeviceModel, list[SubModelProfile]]],
                  ) -> SimulationResult:
    """Score a star-topology deployment with numpy.

    ``arrivals`` are absolute, non-decreasing sample arrival times;
    ``lanes`` are the devices that deliver features, each with its
    sub-models in placement order (failed and empty devices stay idle).
    """
    topology = spec.resolved_topology()
    t = np.asarray(arrivals, dtype=np.float64)
    num_samples = t.size
    width = len(lanes)
    fusion_service = spec.fusion_device.compute_seconds(spec.fusion_flops)
    device_busy = {d.device_id: 0.0 for d in spec.devices}
    link_busy = {d.device_id: 0.0 for d in spec.devices}

    if width == 0:
        # No live sub-models: the fusion barrier is vacuous and every
        # sample goes straight to the fusion CPU at its arrival time.
        barrier = t
    else:
        slots = max(len(profiles) for _, profiles in lanes)
        compute_s = np.zeros((width, slots))
        send_s = np.zeros((width, slots))
        mask = np.zeros((width, slots), dtype=bool)
        for i, (dev, profiles) in enumerate(lanes):
            for j, profile in enumerate(profiles):
                compute_s[i, j] = dev.compute_seconds(profile.flops_per_sample)
                send_s[i, j] = topology.transfer_seconds(dev.device_id,
                                                         profile.feature_bytes)
                mask[i, j] = True

        cpu_free = np.zeros(width)
        cpu_acc = np.zeros(width)
        link_free = np.zeros(width)
        link_acc = np.zeros(width)
        barrier = np.empty(num_samples)
        for k in range(num_samples):
            for j in range(slots):
                in_slot = mask[:, j]
                finish_c = np.maximum(t[k], cpu_free) + compute_s[:, j]
                cpu_free = np.where(in_slot, finish_c, cpu_free)
                cpu_acc = np.where(in_slot, cpu_acc + compute_s[:, j], cpu_acc)
                finish_u = np.maximum(finish_c, link_free) + send_s[:, j]
                link_free = np.where(in_slot, finish_u, link_free)
                link_acc = np.where(in_slot, link_acc + send_s[:, j], link_acc)
            # The barrier fires at the last feature arrival: the max of
            # every live device's final send finish for this sample.
            barrier[k] = link_free.max()

        for (dev, _), busy, lbusy in zip(lanes, cpu_acc.tolist(),
                                         link_acc.tolist()):
            device_busy[dev.device_id] = busy
            link_busy[dev.device_id] = lbusy

    # Fusion CPU: barrier times are non-decreasing (each device's send
    # finishes grow with the sample index), so it serves samples in order
    # — a short scalar recurrence.
    fusion_free = 0.0
    fusion_acc = 0.0
    latencies = np.empty(num_samples)
    for k in range(num_samples):
        fusion_free = max(barrier[k], fusion_free) + fusion_service
        fusion_acc += fusion_service
        latencies[k] = fusion_free - t[k]
    device_busy[spec.fusion_device.device_id] = fusion_acc

    return SimulationResult(latencies=latencies.tolist(),
                            makespan=float(np.max(t + latencies)),
                            device_busy=device_busy, link_busy=link_busy)
