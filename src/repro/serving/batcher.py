"""Request queue and dynamic batcher: no timer on an idle serve loop.

Clients submit single requests (one or a few images each) and get a
:class:`ServedFuture` back immediately.  The serving loop pulls
:class:`Batch` objects from the :class:`DynamicBatcher`, whose policy is:
block for the first pending request, take whatever else is *already
queued* up to ``max_batch_samples`` images, dispatch.  A request that
finds the serve loop idle is never held back by a timer for company that
is not coming; requests that arrive while the loop is busy with the
previous batch coalesce behind it, where waiting costs nothing, so a
backlog drains in cap-sized batches.

One window is left, anchored on the serve loop rather than on the
request: a batch still below the cap is not dispatched before
:data:`LINGER_S` after the loop came back for work.  "Came back for
work" means the devices have replied to the previous batch (it may still
be on the emulated wire, its clients not yet answered) and fewer than
:data:`MAX_INFLIGHT_BATCHES` batches await completion.  On a free link
the previous batch completes within a fraction of a millisecond of that,
and its clients (closed loops, frame streams) send their next requests a
fraction of a millisecond later; dispatching the first of them alone
makes two clients alternate half-size batches, which pays the per-batch
cost twice per round and leaves the saturated throughput to a thread
race.  A request that arrives more than ``LINGER_S`` after the loop went
idle — the lightly-loaded case — does not see the window.

``max_wait_s`` (default ``0.0``) is the Clipper-style max-delay knob for
callers that want it: a batch below the cap is then held open that long
after it was *opened*, idle loop or not.  It trades the latency of every
lightly-loaded request for batch size, which is why it is off by
default.  Requests never split across batches and a batch never exceeds
the cap — the request that would overshoot opens the next batch — except
that a single request larger than the cap still dispatches, alone.
"""

from __future__ import annotations

import collections
import dataclasses
import threading
import time

import numpy as np

from ..obs.metrics import get_registry
from ..obs.trace import get_tracer, tracing_enabled
from .telemetry import RequestTelemetry

# Batch occupancy is small-integer valued; these bounds make the
# histogram read as "how often did we flush at size <= N".
BATCH_SAMPLES_BOUNDS = (1, 2, 4, 8, 16, 32, 64, 128, 256)

# A batch below the cap is not dispatched before this long after the serve
# loop came back for work (see the module docstring); a constant of the
# policy, deliberately not a BatchingConfig field.
LINGER_S = 0.002

# Batches between scatter and completion at once: one computing on the
# devices, one on the emulated wire.  The serve loop takes a slot before it
# asks for the next batch; completion gives it back.
MAX_INFLIGHT_BATCHES = 2

# Admission-control bound on pending requests: beyond it, submit raises
# QueueFullError instead of growing latency without bound.
QUEUE_CAPACITY = 4096


class RequestError(RuntimeError):
    """The server failed (or refused) to serve a request."""


class QueueFullError(RequestError):
    """Admission control rejected the request: the queue is at capacity."""


class ServedFuture:
    """Handle to an in-flight request; resolves to per-sample labels."""

    def __init__(self, request_id: int, x: np.ndarray,
                 telemetry: RequestTelemetry):
        self.request_id = request_id
        self.x = x
        self.telemetry = telemetry
        self._done = threading.Event()
        self._result: np.ndarray | None = None
        self._error: Exception | None = None

    def set_result(self, labels: np.ndarray) -> None:
        self._result = labels
        self._done.set()

    def set_error(self, error: Exception) -> None:
        self._error = error
        self.telemetry.error = str(error)
        self._done.set()

    def done(self) -> bool:
        return self._done.is_set()

    def result(self, timeout: float | None = None) -> np.ndarray:
        """Block until served; returns predicted labels for every sample."""
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"request {self.request_id} not served within {timeout}s")
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result


@dataclasses.dataclass
class Batch:
    """A set of coalesced requests dispatched as one fused forward."""

    requests: list[ServedFuture]

    @property
    def sizes(self) -> list[int]:
        return [len(r.x) for r in self.requests]

    @property
    def num_samples(self) -> int:
        return sum(self.sizes)

    def concatenated(self) -> np.ndarray:
        if len(self.requests) == 1:
            return self.requests[0].x
        return np.concatenate([r.x for r in self.requests], axis=0)


@dataclasses.dataclass(frozen=True)
class BatchingConfig:
    max_batch_samples: int = 16    # never coalesce past this many images
    max_wait_s: float = 0.0        # hold every short batch open this long


class DynamicBatcher:
    """Thread-safe request queue; forms batches for one serve loop."""

    def __init__(self, config: BatchingConfig | None = None):
        self.config = config or BatchingConfig()
        self._pending: "collections.deque[ServedFuture]" = collections.deque()
        # One condition guards the deque and the closed flag; submit() and
        # close() notify it, so a blocked next_batch() never has to poll.
        self._cond = threading.Condition()
        self._closed = False
        registry = get_registry()
        self._queue_depth = registry.gauge("serving.queue_depth")
        self._occupancy = registry.histogram("serving.batch_samples",
                                             bounds=BATCH_SAMPLES_BOUNDS)

    # -- client side ----------------------------------------------------
    def submit(self, future: ServedFuture) -> None:
        with self._cond:
            if self._closed:
                raise RequestError("server is shut down")
            if len(self._pending) >= QUEUE_CAPACITY:
                raise QueueFullError(f"queue at capacity ({QUEUE_CAPACITY})")
            self._pending.append(future)
            self._cond.notify()

    def close(self) -> None:
        """Refuse new requests and wake a blocked :meth:`next_batch`."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    def drain(self) -> list[ServedFuture]:
        """Remove and return everything still queued (used at shutdown)."""
        with self._cond:
            out = list(self._pending)
            self._pending.clear()
            return out

    # -- server side ----------------------------------------------------
    def next_batch(self) -> Batch | None:
        """Block for the next batch; ``None`` once closed and drained.

        The batch opens with the first pending request and takes what is
        already queued behind it, in FIFO order, while the sample cap
        holds; the request that would overshoot the cap stays queued and
        opens the next batch.  A batch below the cap then waits for late
        arrivals only until ``LINGER_S`` after this call was entered or
        ``max_wait_s`` after the batch opened, whichever is later (and
        never past close()): with the default ``max_wait_s`` of 0 a
        request that finds this call parked for longer than ``LINGER_S``
        is handed over at once.  Requests never split across batches, so
        one oversized request (more samples than ``max_batch_samples``)
        still dispatches — alone.
        """
        config = self.config
        entered = time.perf_counter()
        with self._cond:
            while not self._pending:
                if self._closed:
                    return None
                self._cond.wait()
            first = self._pending.popleft()
            form_wall = time.time()
            form_t0 = time.perf_counter()
            requests = [first]
            num_samples = len(first.x)
            deadline = max(entered + LINGER_S, form_t0 + config.max_wait_s)
            while num_samples < config.max_batch_samples:
                if not self._pending:
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0 or self._closed:
                        break
                    self._cond.wait(remaining)
                    continue
                if num_samples + len(self._pending[0].x) \
                        > config.max_batch_samples:
                    break
                nxt = self._pending.popleft()
                requests.append(nxt)
                num_samples += len(nxt.x)
            depth = len(self._pending)
        self._queue_depth.set(depth)
        self._occupancy.observe(num_samples)
        if tracing_enabled():
            # Batch formation belongs to the trace of the request that
            # opened the batch.
            get_tracer().emit(
                "batch.form", trace_id=first.request_id,
                ts=form_wall, duration_s=time.perf_counter() - form_t0,
                attrs={"requests": len(requests), "samples": num_samples})
        return Batch(requests=requests)
