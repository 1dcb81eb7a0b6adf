"""The measured run: lo / hi / sat phases, label check, resource use.

Every workload runs the same shape.  ``lo`` and ``hi`` are open-loop
Poisson phases of single-image requests at the workload's two frozen
rates; ``sat`` is a closed loop of ``nproc`` clients sending 4-image
requests (video-frame chunks) — the same batcher and serve loop used
the other way round, so a batching or wait-policy change that buys
``sat`` throughput at the cost of ``lo`` latency shows up as both.

Each phase is cut into :data:`SEGMENTS` seeded segments.  A metric is
the median over segments of the per-segment statistic (its quartile
distance over that median is kept as ``spread``); the tail percentile
alone is taken over the phase's pooled samples, because no single
segment has ten samples beyond its p95.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import resource
import time

import numpy as np

import drivers
import sampling
from fleets import Prepared

SEGMENTS = 5
# Share of --seconds each phase measures for.
PHASE_SHARE = {"lo": 0.40, "hi": 0.40, "sat": 0.20}
SAT_IMAGES = 4
WARM_UP_S = 3.0
REQUEST_TIMEOUT_S = 30.0
# Served labels may differ from the in-process reference on at most this
# share of images (float reassociation near a tie); more is a wrong answer.
MISMATCH_LIMIT = 0.01


def clients() -> int:
    """Closed-loop client threads: the cores this process may run on."""
    return len(os.sched_getaffinity(0))


@dataclasses.dataclass
class Segment:
    replies: list[drivers.Reply]
    wall_s: float                      # first send -> last reply

    def ok(self) -> list[drivers.Reply]:
        return [r for r in self.replies if r.status == drivers.OK]

    def latencies_ms(self) -> list[float]:
        return [r.latency_s * 1e3 for r in self.ok()]


@dataclasses.dataclass
class Phase:
    name: str
    segments: list[Segment]

    def replies(self) -> list[drivers.Reply]:
        return [r for s in self.segments for r in s.replies]

    def counts(self) -> dict[str, int]:
        """sent / succeeded / failed / refused / timed_out, in requests."""
        replies = self.replies()
        count = {status: sum(r.status == status for r in replies)
                 for status in (drivers.OK, drivers.FAILED, drivers.REFUSED,
                                drivers.TIMED_OUT)}
        return {"sent": len(replies), "succeeded": count[drivers.OK],
                "failed": count[drivers.FAILED],
                "refused": count[drivers.REFUSED],
                "timed_out": count[drivers.TIMED_OUT]}


def segment_rng(seed: int, phase: str, segment: int) -> np.random.Generator:
    return np.random.default_rng(
        [seed, 1 + list(PHASE_SHARE).index(phase), segment])


def open_segment(submit, prepared: Prepared, rate_rps: float,
                 seconds: float, rng: np.random.Generator) -> Segment:
    count = max(1, round(rate_rps * seconds))
    offsets = drivers.poisson_offsets(rng, rate_rps, count)
    rows = drivers.request_rows(rng, len(prepared.pool), count, 1)
    t0 = time.perf_counter()
    replies = drivers.open_loop(submit, offsets, rows, prepared.pool,
                                REQUEST_TIMEOUT_S)
    return Segment(replies, wall_s=time.perf_counter() - t0)


def closed_segment(submit, prepared: Prepared, seconds: float,
                   rng: np.random.Generator) -> Segment:
    rows = drivers.request_rows(rng, len(prepared.pool), 4096, SAT_IMAGES)
    replies, wall = drivers.closed_loop(submit, clients(), seconds, rows,
                                        prepared.pool, REQUEST_TIMEOUT_S)
    return Segment(replies, wall_s=wall)


def warm_up(submit, prepared: Prepared,
            seconds: float = WARM_UP_S) -> None:
    """Untimed: serve until the workers have reached their steady state.

    A fresh worker's first forwards run at about half speed (page
    faults, allocator and BLAS warm-up; ~60 requests on the
    compute-bound fleet), so the phases start only after a stretch of
    load of both request shapes."""
    for images in (1, SAT_IMAGES):
        rows = drivers.request_rows(np.random.default_rng(0),
                                    len(prepared.pool), 4096, images)
        drivers.closed_loop(submit, clients(), seconds / 2, rows,
                            prepared.pool, REQUEST_TIMEOUT_S)


def run_phases(submit, prepared: Prepared, frozen: dict, seed: int,
               seconds: float, segments: int = SEGMENTS) -> dict[str, Phase]:
    """Measure for ``seconds``: ``segments`` rounds of one lo, one hi and
    one sat segment each.  Interleaving spreads every phase's samples over
    the whole run, so a slow stretch of the host (a noisy neighbour)
    lands in one segment of each phase instead of in all of one phase's,
    and the median over segments sets it aside."""
    phases = {name: Phase(name, []) for name in PHASE_SHARE}
    for index in range(segments):
        for name, share in PHASE_SHARE.items():
            segment_s = seconds * share / segments
            rng = segment_rng(seed, name, index)
            if name == "sat":
                segment = closed_segment(submit, prepared, segment_s, rng)
            else:
                segment = open_segment(
                    submit, prepared, frozen[f"rate_{name}_rps"], segment_s,
                    rng)
            phases[name].segments.append(segment)
    return phases


# ----------------------------------------------------------------------
# Correctness.
def label_check(prepared: Prepared, replies) -> tuple[int, int]:
    """``(mismatched, checked)`` images over the replies that succeeded."""
    mismatched = checked = 0
    for reply in replies:
        if reply.status != drivers.OK:
            continue
        expected = prepared.reference[reply.rows]
        mismatched += int((np.asarray(reply.labels) != expected).sum())
        checked += len(expected)
    return mismatched, checked


def gate(prepared: Prepared, phases, health: dict[str, str]) -> dict:
    """The correctness verdict of a run, and the counts behind it.

    Wrong when any request failed, was refused or timed out (so a phase
    completed fewer than it sent), when more than MISMATCH_LIMIT of the
    served labels differ from the reference, or when a worker is down
    at the end."""
    replies = [r for phase in phases for r in phase.replies()]
    failed = sum(r.status != drivers.OK for r in replies)
    mismatched, checked = label_check(prepared, replies)
    down = sorted(w for w, state in health.items() if state != "up")
    verdict = {"attempted": len(replies), "failed": failed,
               "failed_share": failed / len(replies),
               "label_mismatch_share": mismatched / max(checked, 1),
               "workers_down": down, "reasons": []}
    if failed:
        verdict["reasons"].append(f"{failed} requests failed, were "
                                  "refused or timed out")
    if verdict["label_mismatch_share"] > MISMATCH_LIMIT:
        verdict["reasons"].append(
            f"{mismatched} of {checked} served labels differ from the "
            "reference")
    if down:
        verdict["reasons"].append(f"workers down at the end: {down}")
    verdict["correct"] = not verdict["reasons"]
    return verdict


def _good(reply: drivers.Reply, limit_ms: float) -> bool:
    """Counts toward goodput: answered in full, in time."""
    return (reply.status == drivers.OK and not reply.telemetry.degraded
            and reply.latency_s * 1e3 <= limit_ms)


# ----------------------------------------------------------------------
# Resource use of this process plus its worker processes.
_TICK = os.sysconf("SC_CLK_TCK")


def _worker_pids() -> list[int]:
    return [p.pid for p in multiprocessing.active_children()]


def cpu_seconds() -> float:
    """user+sys CPU of the driver and of every live worker process."""
    total = time.process_time()
    for pid in _worker_pids():
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            # Fields after the parenthesised command name; utime and
            # stime are the 14th and 15th of the whole line.
            fields = handle.read().rsplit(")", 1)[1].split()
        total += (int(fields[11]) + int(fields[12])) / _TICK
    return total


def peak_rss_mb() -> float:
    """High-water resident set of the driver plus its worker processes."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in _worker_pids():
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
    return total_kb / 1024.0


# ----------------------------------------------------------------------
# Reduction of the phases to metrics: ``{value, spread, n, segments}``.
def latency_p50(phase: Phase) -> dict:
    return {**sampling.over_segments(
        [sampling.percentile(s.latencies_ms(), 50) for s in phase.segments]),
        "n": len(phase.replies())}


def latency_tail(phase: Phase, wanted: float = 95.0) -> dict:
    """The tail percentile over the phase's pooled samples — the highest
    one up to ``wanted`` that has ten samples beyond it (``q_used``)."""
    pooled = [ms for s in phase.segments for ms in s.latencies_ms()]
    value, q_used = sampling.tail(pooled, wanted)
    per_segment = [sampling.percentile(s.latencies_ms(), q_used)
                   for s in phase.segments]
    return {"value": value, "n": len(pooled), "q_used": q_used,
            "spread": sampling.spread(per_segment), "segments": per_segment}


def goodput_rps(phase: Phase, limit_ms: float) -> dict:
    """Replies within the limit per second of segment; a request that
    failed, was refused, timed out or came back degraded is a miss."""
    return {**sampling.over_segments(
        [sum(_good(r, limit_ms) for r in s.replies) / s.wall_s
         for s in phase.segments]),
        "n": len(phase.replies())}


def throughput_ips(phase: Phase) -> dict:
    return {**sampling.over_segments(
        [sum(len(r.rows) for r in s.ok()) / s.wall_s
         for s in phase.segments]),
        "n": images_served([phase])}


def images_served(phases) -> int:
    return sum(len(r.rows) for p in phases for r in p.replies()
               if r.status == drivers.OK)


def late_flags(phase: Phase) -> list[str]:
    """Segments whose generator ran late by more than 5 % of the
    segment's median latency: their numbers include the benchmark's own
    delay (or the host's), not only the program's."""
    flags = []
    for index, segment in enumerate(phase.segments):
        late = sampling.percentile(
            [r.late_s * 1e3 for r in segment.replies], 95)
        p50 = sampling.percentile(segment.latencies_ms(), 50)
        if late > 0.05 * p50:
            flags.append(f"{phase.name} segment {index}: generator "
                         f"late_p95 {late:.2f} ms > 5% of p50 {p50:.2f} ms")
    return flags
