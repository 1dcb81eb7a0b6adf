"""Vectorized fast path for the star-topology inference pattern.

Every sample simulated by :func:`repro.edge.simulator.simulate_inference`
follows the same deterministic chain through FIFO resources — (optional
input receive) → device compute → feature transfer → fusion barrier →
fusion compute — so fleet-scale runs do not need a Python callback per
event.  For a FIFO resource the finish times obey the Lindley recurrence

    ``finish_i = max(ready_i, finish_{i-1}) + service_i``

and because every device owns its CPU and uplink independently, the
recurrence advances for the *whole fleet at once* with ``np.maximum`` and
adds, one short numpy step per (sample, sub-model slot) instead of ~4
Python events per (sample, sub-model, device).  The operations are applied
in the exact order and with the exact float64 arithmetic the event loop
uses (``max`` then ``+``), so latencies, busy totals, and busy segments are
**bit-identical** to the event-loop DES, not merely close — the fastsim
tests (up to 1000 devices) and the property suite assert this.

Applicability: the pattern must be closed-form FIFO, which holds whenever

* ``input_bytes == 0`` (no input shipping — the uplink only carries
  feature sends, whose acquisition order is the sample order), or
* all samples arrive at the same instant (batch mode — every input
  receive is booked before any feature send, so the uplink order is
  still static).

With input shipping *and* staggered arrivals the uplink interleaves
receives and sends in an order that depends on queue state, so
:func:`applicable` returns False and the caller falls back to the event
loop.  :func:`simulate_star` is not called directly by users — use
``simulate_inference(..., engine="vector")`` (or the default ``"auto"``).
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:                      # pragma: no cover - typing only
    from .simulator import DeploymentSpec


def applicable(spec: "DeploymentSpec", arrivals: Sequence[float]) -> bool:
    """True when the vectorized scorer reproduces the event loop exactly."""
    if spec.input_bytes <= 0:
        return True
    first = arrivals[0]
    return all(t == first for t in arrivals)


@dataclasses.dataclass
class StarRunOutput:
    """Raw vectorized-run results, assembled into a SimulationResult by
    :func:`repro.edge.simulator.simulate_inference`."""

    latencies: np.ndarray              # (num_samples,) float64
    makespan: float
    device_busy: dict[str, float]
    link_busy: dict[str, float]
    busy_segments: dict[str, list[tuple[float, float]]]


def _merge_segments(starts: np.ndarray,
                    finishes: np.ndarray) -> list[tuple[float, float]]:
    """Merge back-to-back busy intervals, FifoResource-style.

    ``starts``/``finishes`` are in acquisition order; intervals are
    disjoint by FIFO construction, so merging only joins intervals whose
    boundaries touch exactly.  Zero-length intervals are dropped, matching
    ``FifoResource.acquire``'s ``service_seconds > 0`` guard.
    """
    return _merge_segment_rows(starts, finishes,
                               np.zeros(starts.size, dtype=np.intp), 1)[0]


def _merge_segment_rows(starts: np.ndarray, finishes: np.ndarray,
                        rows: np.ndarray,
                        num_rows: int) -> list[list[tuple[float, float]]]:
    """Merge busy intervals for many resources in one numpy pass.

    ``rows`` labels each interval with its resource index; intervals of
    one resource are contiguous and in acquisition order.  One global
    merge beats a per-device Python loop by ~two orders of magnitude at
    thousand-device fleets.
    """
    keep = finishes > starts
    s = starts[keep]
    f = finishes[keep]
    rows = rows[keep]
    out: list[list[tuple[float, float]]] = [[] for _ in range(num_rows)]
    if s.size == 0:
        return out
    new = np.empty(s.size, dtype=bool)
    new[0] = True
    np.logical_or(s[1:] > f[:-1], rows[1:] != rows[:-1], out=new[1:])
    heads = np.flatnonzero(new)
    tails = np.append(heads[1:], s.size) - 1
    for row, start, finish in zip(rows[heads].tolist(), s[heads].tolist(),
                                  f[tails].tolist()):
        out[row].append((start, finish))
    return out


def simulate_star(spec: "DeploymentSpec", arrivals: Sequence[float],
                  failed: set[str]) -> StarRunOutput:
    """Score a star-topology deployment without the event loop.

    ``arrivals`` are absolute, non-decreasing sample arrival times;
    ``failed`` devices contribute no features (their resources stay idle),
    mirroring ``simulate_inference(failed_devices=...)``.
    """
    topology = spec.resolved_topology()
    models_on: dict[str, list] = {d.device_id: [] for d in spec.devices}
    for model_id, device_id in spec.placement.items():
        if device_id not in models_on:
            raise KeyError(f"placement targets unknown device {device_id!r}")
        models_on[device_id].append(spec.profiles[model_id])

    t = np.asarray(arrivals, dtype=np.float64)
    num_samples = t.size
    active = [d for d in spec.devices
              if d.device_id not in failed and models_on[d.device_id]]
    width = len(active)
    fusion_service = spec.fusion_device.compute_seconds(spec.fusion_flops)

    segments: dict[str, list[tuple[float, float]]] = {}
    for d in spec.devices:
        segments[f"cpu:{d.device_id}"] = []
        segments[f"link:{d.device_id}"] = []
    device_busy = {d.device_id: 0.0 for d in spec.devices}
    link_busy = {d.device_id: 0.0 for d in spec.devices}

    if width == 0:
        # No live sub-models: the fusion barrier is vacuous and every
        # sample goes straight to the fusion CPU at its arrival time.
        barrier = t
    else:
        slots = max(len(models_on[d.device_id]) for d in active)
        compute_s = np.zeros((width, slots))
        send_s = np.zeros((width, slots))
        mask = np.zeros((width, slots), dtype=bool)
        for i, dev in enumerate(active):
            for j, profile in enumerate(models_on[dev.device_id]):
                compute_s[i, j] = dev.compute_seconds(profile.flops_per_sample)
                send_s[i, j] = topology.transfer_seconds(dev.device_id,
                                                         profile.feature_bytes)
                mask[i, j] = True

        link_free = np.zeros(width)
        link_acc = np.zeros(width)
        recv_finish = None
        recv_start_log = recv_finish_log = None
        if spec.input_bytes > 0:
            # Batch mode (checked by `applicable`): every sample's input
            # receive is booked at t[0], before any feature send, so the
            # uplink serves all receives first, in flattened sample-major
            # order — exactly the event loop's acquisition order.
            recv_s = np.array([topology.transfer_seconds(d.device_id,
                                                         spec.input_bytes)
                               for d in active])
            recv_start_log = np.empty((num_samples, width, slots))
            recv_finish_log = np.empty((num_samples, width, slots))
            t0 = t[0]
            for k in range(num_samples):
                for j in range(slots):
                    in_slot = mask[:, j]
                    start = np.maximum(t0, link_free)
                    finish = start + recv_s
                    recv_start_log[k, :, j] = start
                    recv_finish_log[k, :, j] = finish
                    link_free = np.where(in_slot, finish, link_free)
                    link_acc = np.where(in_slot, link_acc + recv_s, link_acc)
            recv_finish = recv_finish_log

        cpu_free = np.zeros(width)
        cpu_acc = np.zeros(width)
        cpu_start_log = np.empty((num_samples, width, slots))
        cpu_finish_log = np.empty((num_samples, width, slots))
        send_start_log = np.empty((num_samples, width, slots))
        send_finish_log = np.empty((num_samples, width, slots))
        barrier = np.empty(num_samples)
        for k in range(num_samples):
            for j in range(slots):
                in_slot = mask[:, j]
                ready = t[k] if recv_finish is None else recv_finish[k, :, j]
                start_c = np.maximum(ready, cpu_free)
                finish_c = start_c + compute_s[:, j]
                cpu_start_log[k, :, j] = start_c
                cpu_finish_log[k, :, j] = finish_c
                cpu_free = np.where(in_slot, finish_c, cpu_free)
                cpu_acc = np.where(in_slot, cpu_acc + compute_s[:, j], cpu_acc)
                start_u = np.maximum(finish_c, link_free)
                finish_u = start_u + send_s[:, j]
                send_start_log[k, :, j] = start_u
                send_finish_log[k, :, j] = finish_u
                link_free = np.where(in_slot, finish_u, link_free)
                link_acc = np.where(in_slot, link_acc + send_s[:, j], link_acc)
            # The barrier fires at the last feature arrival: the max of
            # every live device's final send finish for this sample.
            barrier[k] = link_free.max()

        for device_id, busy, lbusy in zip((d.device_id for d in active),
                                          cpu_acc.tolist(), link_acc.tolist()):
            device_busy[device_id] = busy
            link_busy[device_id] = lbusy

        # Segment assembly, one global merge per resource class.  The logs
        # are (sample, device, slot); per device the acquisition order is
        # flattened sample-major (k, j), so transposing to device-major and
        # ravelling reproduces it — and labelling each interval with its
        # device index lets `_merge_segment_rows` split per-device segment
        # lists out of a single numpy pass instead of a per-device loop
        # (which dominated runtime at thousand-device fleets).
        lane = np.broadcast_to(mask[:, None, :],
                               (width, num_samples, slots)).ravel()
        rows = np.repeat(np.arange(width), num_samples * slots)[lane]
        cpu_rows = _merge_segment_rows(
            cpu_start_log.transpose(1, 0, 2).ravel()[lane],
            cpu_finish_log.transpose(1, 0, 2).ravel()[lane],
            rows, width)
        if recv_start_log is None:
            link_rows = _merge_segment_rows(
                send_start_log.transpose(1, 0, 2).ravel()[lane],
                send_finish_log.transpose(1, 0, 2).ravel()[lane],
                rows, width)
        else:
            # Per device the uplink serves every input receive before any
            # feature send (batch mode), so stack the recv block ahead of
            # the send block on a per-device axis before ravelling.
            def _stack(recv_log: np.ndarray, send_log: np.ndarray) -> np.ndarray:
                return np.stack([recv_log.transpose(1, 0, 2),
                                 send_log.transpose(1, 0, 2)], axis=1).ravel()
            lane2 = np.broadcast_to(mask[:, None, None, :],
                                    (width, 2, num_samples, slots)).ravel()
            rows2 = np.repeat(np.arange(width), 2 * num_samples * slots)[lane2]
            link_rows = _merge_segment_rows(
                _stack(recv_start_log, send_start_log)[lane2],
                _stack(recv_finish_log, send_finish_log)[lane2],
                rows2, width)
        for i, dev in enumerate(active):
            segments[f"cpu:{dev.device_id}"] = cpu_rows[i]
            segments[f"link:{dev.device_id}"] = link_rows[i]

    # Fusion CPU: barrier times are non-decreasing (each device's send
    # finishes grow with the sample index), so acquisitions happen in
    # sample order — a short scalar recurrence.
    fusion_free = 0.0
    fusion_acc = 0.0
    fusion_start = np.empty(num_samples)
    fusion_finish = np.empty(num_samples)
    latencies = np.empty(num_samples)
    for k in range(num_samples):
        ready = barrier[k]
        start = fusion_free if fusion_free > ready else ready
        finish = start + fusion_service
        fusion_free = finish
        fusion_acc += fusion_service
        fusion_start[k] = start
        fusion_finish[k] = finish
        latencies[k] = finish - t[k]

    fusion_id = spec.fusion_device.device_id
    device_busy[fusion_id] = fusion_acc
    segments[f"cpu:{fusion_id}"] = _merge_segments(fusion_start, fusion_finish)

    makespan = float(np.max(t + latencies))
    return StarRunOutput(latencies=latencies, makespan=makespan,
                         device_busy=device_busy, link_busy=link_busy,
                         busy_segments=segments)
