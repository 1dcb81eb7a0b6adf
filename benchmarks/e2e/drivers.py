"""Load drivers of the e2e benchmark: seeded open loop and closed loop.

The benchmark owns its drivers instead of calling
``repro.serving.loadgen.run_load`` because of the clock:  ``run_load``
times a request from ``enqueued_at``, which is read *after* the
generator woke up and got through ``submit``, so a stalled server that
delays the generator hides the stall from its own latency numbers.
Here an open-loop request is timed from the instant it was **due** on
the seeded schedule, and how late the generator actually ran is
recorded beside it.

Both drivers take a ``submit(x) -> future`` callable (the public
``InferenceServer.submit``), where the future offers ``result(timeout)``
and a ``telemetry.completed_at`` perf_counter stamp — so a test can put
a fake server behind them.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from typing import Callable, Sequence

import numpy as np

from repro.serving import QueueFullError, RequestError

OK, FAILED, REFUSED, TIMED_OUT = "ok", "failed", "refused", "timed_out"


@dataclasses.dataclass
class Reply:
    """What happened to one request (all stamps perf_counter seconds)."""

    rows: np.ndarray                   # pool rows the request carried
    due: float                         # when the schedule wanted it sent
    submitted: float                   # when submit() was actually entered
    status: str = OK
    completed: float | None = None     # telemetry.completed_at
    labels: np.ndarray | None = None
    telemetry: object | None = None    # the server's RequestTelemetry

    @property
    def latency_s(self) -> float:
        """Due time -> reply: includes whatever made the generator late."""
        return self.completed - self.due

    @property
    def late_s(self) -> float:
        return self.submitted - self.due


def poisson_offsets(rng: np.random.Generator, rate_rps: float,
                    count: int) -> np.ndarray:
    """``count`` Poisson arrival offsets spanning exactly ``count/rate`` s.

    Seeded exponential gaps -> absolute due times, rescaled so the
    ``count + 1`` gaps fill the nominal span: that is a Poisson process
    conditioned on its count, so every seed offers the identical load
    (same requests over the same seconds) and only the spacing differs.
    """
    if count < 1 or rate_rps <= 0:
        raise ValueError("need count >= 1 and a positive rate")
    gaps = rng.exponential(size=count + 1)
    return np.cumsum(gaps)[:count] * (count / rate_rps) / gaps.sum()


def request_rows(rng: np.random.Generator, pool_size: int, count: int,
                 images: int) -> np.ndarray:
    """``(count, images)`` seeded pool rows: which images each request is."""
    return rng.integers(0, pool_size, size=(count, images))


def _resolve(reply: Reply, future, timeout_s: float) -> None:
    try:
        reply.labels = future.result(timeout_s)
    except TimeoutError:
        reply.status = TIMED_OUT
        return
    except RequestError:
        reply.status = FAILED
    reply.telemetry = future.telemetry
    reply.completed = future.telemetry.completed_at


def open_loop(submit: Callable, offsets: Sequence[float], rows: np.ndarray,
              pool: np.ndarray, timeout_s: float = 30.0) -> list[Reply]:
    """Send ``pool[rows[k]]`` at ``start + offsets[k]`` whatever the server
    does, then wait for every reply.  Runs in the calling thread: one
    generator, so a slow ``submit`` makes the following requests late —
    and because latency counts from ``due``, that shows."""
    replies: list[Reply] = []
    futures = []
    start = time.perf_counter() + 0.002
    for offset, request in zip(offsets, rows):
        due = start + float(offset)
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        reply = Reply(rows=request, due=due, submitted=time.perf_counter())
        try:
            futures.append(submit(pool[request]))
        except QueueFullError:
            reply.status = REFUSED
            futures.append(None)
        replies.append(reply)
    for reply, future in zip(replies, futures):
        if future is not None:
            _resolve(reply, future, timeout_s)
    return replies


def closed_loop(submit: Callable, clients: int, duration_s: float,
                rows: np.ndarray, pool: np.ndarray,
                timeout_s: float = 30.0) -> tuple[list[Reply], float]:
    """``clients`` threads each submit, wait, submit again for
    ``duration_s``; returns the replies and the wall seconds they took.
    Client ``c`` walks ``rows[c::clients]`` (cyclically), so the inputs
    are fixed by the seed however fast the server answers."""
    per_client: list[list[Reply]] = [[] for _ in range(clients)]
    start = time.perf_counter()
    deadline = start + duration_s

    def client(index: int) -> None:
        mine = rows[index::clients]
        k = 0
        while time.perf_counter() < deadline:
            request = mine[k % len(mine)]
            k += 1
            now = time.perf_counter()
            reply = Reply(rows=request, due=now, submitted=now)
            per_client[index].append(reply)
            try:
                future = submit(pool[request])
            except QueueFullError:
                reply.status = REFUSED
                continue
            _resolve(reply, future, timeout_s)

    threads = [threading.Thread(target=client, args=(i,), daemon=True,
                                name=f"e2e-client-{i}")
               for i in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(duration_s + 2 * timeout_s)
        if thread.is_alive():
            raise RuntimeError(f"{thread.name} still running after the "
                               "closed-loop deadline")
    replies = [reply for client_replies in per_client
               for reply in client_replies]
    return replies, time.perf_counter() - start
