"""Arrival traces and traffic generators shared by loadgen and simulator.

The serving load generator (:mod:`repro.serving.loadgen`) and the fleet
simulator (:func:`repro.edge.simulator.simulate_inference` via
``arrival_times``) both consume the same :class:`ArrivalTrace`: a sorted
schedule of absolute arrival seconds.  That makes capacity planning
honest — the trace that sizes a fleet in simulation is byte-for-byte the
trace the real server can be driven with.

Generators cover the canonical traffic shapes:

* :func:`poisson_trace` — homogeneous Poisson at a constant rate;
* :func:`mmpp_trace` — Markov-modulated Poisson (exponential dwells in
  each rate state, uniform jumps to another state);
* :func:`diurnal_trace` — sinusoidal day/night rate;
* :func:`burst_trace` — periodic on/off bursts over a base rate;
* :func:`flash_crowd_trace` — a sudden spike that decays exponentially.

All non-homogeneous generators use Lewis–Shedler thinning against the
peak rate, so the produced process is an exact non-homogeneous Poisson
process for the given rate function.  Every generator is deterministic
in its ``seed``.

Traces serialize to JSONL (``repro.arrivals.v1``): a header object, then
one ``{"t": <seconds>}`` object per arrival.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

TRACE_FORMAT = "repro.arrivals.v1"


@dataclasses.dataclass(frozen=True)
class ArrivalTrace:
    """A sorted schedule of absolute arrival times, in seconds from t=0."""

    arrivals: tuple[float, ...]

    def __post_init__(self):
        if not self.arrivals:
            raise ValueError("a trace must contain at least one arrival")
        object.__setattr__(self, "arrivals",
                           tuple(float(t) for t in self.arrivals))
        if not all(math.isfinite(t) for t in self.arrivals):
            raise ValueError("arrival times must be finite")
        if self.arrivals[0] < 0:
            raise ValueError("arrival times must be non-negative")
        for earlier, later in zip(self.arrivals, self.arrivals[1:]):
            if later < earlier:
                raise ValueError("arrival times must be sorted")

    @property
    def num_requests(self) -> int:
        return len(self.arrivals)

    @property
    def duration(self) -> float:
        """Span from t=0 to the last arrival."""
        return self.arrivals[-1]

    @property
    def mean_rps(self) -> float:
        """Mean offered rate over the trace span (0 for an instant trace)."""
        if self.duration <= 0:
            return 0.0
        return self.num_requests / self.duration

    def split_round_robin(self, n: int) -> list["ArrivalTrace"]:
        """Deal arrivals across ``n`` consumers, preserving absolute times.

        This is how a front-end balances a request stream over ``n``
        replicas; shard ``i`` gets arrivals ``i, i+n, i+2n, ...``.  Shards
        beyond the number of arrivals would be empty — that raises, since
        an empty trace is invalid (use fewer replicas instead).
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        if n > self.num_requests:
            raise ValueError(
                f"cannot split {self.num_requests} arrivals {n} ways")
        return [ArrivalTrace(self.arrivals[i::n]) for i in range(n)]

    def to_jsonl(self, path: str | Path) -> None:
        header = {"format": TRACE_FORMAT, "num_requests": self.num_requests,
                  "duration_s": self.duration}
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, allow_nan=False) + "\n")
            for t in self.arrivals:
                fh.write(json.dumps({"t": t}, allow_nan=False) + "\n")

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "ArrivalTrace":
        """Read a trace :meth:`to_jsonl` wrote.  A malformed file raises
        :class:`ValueError` naming ``path`` and, where one is to blame,
        the line."""
        arrivals: list[float] = []
        try:
            with open(path, "r", encoding="utf-8") as fh:
                header_line = fh.readline()
                if not header_line.strip():
                    raise ValueError(f"{path}: empty trace file")
                header = _json_object(path, 1, header_line)
                if header.get("format") != TRACE_FORMAT:
                    raise ValueError(
                        f"{path}:1: expected format {TRACE_FORMAT!r}, "
                        f"got {header.get('format')!r}")
                for lineno, line in enumerate(fh, start=2):
                    if not line.strip():
                        continue
                    raw = _json_object(path, lineno, line).get("t")
                    # type() rejects bools; the bound keeps a huge int
                    # from overflowing float() and rejects inf and NaN.
                    t = float(raw) if type(raw) in (int, float) \
                        and abs(raw) < 1e308 else math.nan
                    if not t >= (arrivals[-1] if arrivals else 0.0):
                        raise ValueError(
                            f"{path}:{lineno}: \"t\" must be a finite "
                            f"number, not negative and not before the "
                            f"previous arrival; got {raw!r}")
                    arrivals.append(t)
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text ({exc})") from None
        if header.get("num_requests") != len(arrivals):
            raise ValueError(
                f"{path}: header says {header.get('num_requests')} arrivals, "
                f"file has {len(arrivals)}")
        try:
            return cls(tuple(arrivals))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _json_object(path: str | Path, lineno: int, line: str) -> dict:
    """Line ``lineno`` of ``path`` parsed as one JSON object."""
    try:
        value = json.loads(line)
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: not JSON ({exc})") from None
    if not isinstance(value, dict):
        raise ValueError(f"{path}:{lineno}: expected a JSON object, "
                         f"got {type(value).__name__}")
    return value


def poisson_trace(rate_rps: float, duration_s: float,
                  seed: int = 0) -> ArrivalTrace:
    """Homogeneous Poisson arrivals at ``rate_rps`` over ``duration_s``."""
    if rate_rps <= 0 or duration_s <= 0:
        raise ValueError("rate and duration must be positive")
    rng = np.random.default_rng(seed)
    times = []
    t = 0.0
    while True:
        t += rng.exponential(1.0 / rate_rps)
        if t >= duration_s:
            break
        times.append(t)
    if not times:
        # Degenerate draw (tiny rate*duration): keep the trace valid by
        # placing one arrival mid-window.
        times = [duration_s / 2]
    return ArrivalTrace(tuple(times))


def _thinned(rate_fn: Callable[[float], float], rate_max: float,
             duration_s: float, rng: np.random.Generator) -> ArrivalTrace:
    """Lewis–Shedler thinning: exact NHPP sampling for ``rate_fn``."""
    times = []
    t = 0.0
    while True:
        t += rng.exponential(1.0 / rate_max)
        if t >= duration_s:
            break
        if rng.uniform() * rate_max <= rate_fn(t):
            times.append(t)
    if not times:
        times = [duration_s / 2]
    return ArrivalTrace(tuple(times))


def mmpp_trace(rates_rps: Sequence[float], mean_dwell_s: float,
               duration_s: float, seed: int = 0) -> ArrivalTrace:
    """Markov-modulated Poisson process over the given rate states.

    The process dwells in each state for an Exponential(``mean_dwell_s``)
    time, emitting Poisson arrivals at that state's rate, then jumps
    uniformly at random to one of the *other* states.
    """
    if len(rates_rps) < 2:
        raise ValueError("an MMPP needs at least two rate states")
    if any(r < 0 for r in rates_rps) or max(rates_rps) <= 0:
        raise ValueError("rates must be non-negative with a positive max")
    if mean_dwell_s <= 0 or duration_s <= 0:
        raise ValueError("dwell and duration must be positive")
    rng = np.random.default_rng(seed)
    times = []
    t = 0.0
    state = int(rng.integers(len(rates_rps)))
    while t < duration_s:
        dwell_end = min(t + rng.exponential(mean_dwell_s), duration_s)
        rate = rates_rps[state]
        if rate > 0:
            clock = t
            while True:
                clock += rng.exponential(1.0 / rate)
                if clock >= dwell_end:
                    break
                times.append(clock)
        t = dwell_end
        jump = int(rng.integers(len(rates_rps) - 1))
        state = jump if jump < state else jump + 1
    if not times:
        times = [duration_s / 2]
    return ArrivalTrace(tuple(times))


def diurnal_trace(base_rps: float, peak_rps: float, period_s: float,
                  duration_s: float, seed: int = 0) -> ArrivalTrace:
    """Sinusoidal day/night rate: base at the trough, ``peak_rps`` at noon."""
    if not 0 <= base_rps <= peak_rps or peak_rps <= 0:
        raise ValueError("need 0 <= base_rps <= peak_rps with peak > 0")
    if period_s <= 0 or duration_s <= 0:
        raise ValueError("period and duration must be positive")
    mid = (base_rps + peak_rps) / 2
    amp = (peak_rps - base_rps) / 2

    def rate(t: float) -> float:
        # Trough at t=0, peak at t=period/2.
        return mid - amp * math.cos(2 * math.pi * t / period_s)

    return _thinned(rate, peak_rps, duration_s, np.random.default_rng(seed))


def burst_trace(base_rps: float, burst_rps: float, burst_every_s: float,
                burst_duration_s: float, duration_s: float,
                seed: int = 0) -> ArrivalTrace:
    """Base-rate traffic with periodic bursts at ``burst_rps``.

    A burst of ``burst_duration_s`` starts every ``burst_every_s`` (the
    first at ``t = burst_every_s``, so the trace opens calm).
    """
    if base_rps < 0 or burst_rps <= base_rps:
        raise ValueError("need 0 <= base_rps < burst_rps")
    if not 0 < burst_duration_s < burst_every_s or duration_s <= 0:
        raise ValueError("need 0 < burst_duration_s < burst_every_s "
                         "and positive duration")

    def rate(t: float) -> float:
        phase = t % burst_every_s
        in_burst = burst_every_s - burst_duration_s <= phase
        return burst_rps if in_burst else base_rps

    return _thinned(rate, burst_rps, duration_s, np.random.default_rng(seed))


def flash_crowd_trace(base_rps: float, peak_rps: float, onset_s: float,
                      decay_s: float, duration_s: float,
                      seed: int = 0) -> ArrivalTrace:
    """A flash crowd: rate jumps to ``peak_rps`` at ``onset_s`` and decays
    exponentially back toward ``base_rps`` with time constant ``decay_s``."""
    if not 0 <= base_rps < peak_rps:
        raise ValueError("need 0 <= base_rps < peak_rps")
    if onset_s < 0 or decay_s <= 0 or duration_s <= onset_s:
        raise ValueError("need onset in [0, duration) and positive decay")

    def rate(t: float) -> float:
        if t < onset_s:
            return base_rps
        return base_rps + (peak_rps - base_rps) * math.exp(
            -(t - onset_s) / decay_s)

    return _thinned(rate, peak_rps, duration_s, np.random.default_rng(seed))
