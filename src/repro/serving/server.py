"""Asynchronous request-level inference server over an :class:`EdgeCluster`.

The server owns four moving parts:

* a :class:`~repro.serving.batcher.DynamicBatcher` with no timer on an
  idle server: a request arriving there is dispatched at once, requests
  arriving while a batch is in flight coalesce into the next one, and a
  short batch waits at most ``batcher.LINGER_S`` after the loop came back
  for the clients it is about to answer;
* a serve loop that scatters each batch to every live worker at once and
  gathers the replies with ``EdgeCluster.gather`` — the same wait, over
  all workers at once, that ``EdgeCluster.infer_features`` uses — so one
  slow device never serializes the gather.  It returns as soon as the
  devices' emulated compute of the batch is done, so they compute the
  next batch while this one is on the emulated wire;
* one completion thread that takes the gathered batches in dispatch
  order, waits until their features are *delivered* over the emulated
  links, fuses them and answers the batch's requests.  At most
  ``batcher.MAX_INFLIGHT_BATCHES`` batches sit between scatter and
  completion; and
* failure-aware fusion: a worker that times out, errors, or dies is
  marked down and its feature slot is zero-filled, so the fleet keeps
  answering in degraded mode — the runtime version of
  ``examples/fault_tolerance.py``'s offline analysis.

Fusion layout is tracked as **slots**: one slot per sub-model, in the
order the fusion MLP was trained on, each currently hosted by some worker.
By default slot ids equal the initial worker ids (one sub-model per
worker).  An optional ``replanner`` hook (wired up by
:class:`repro.planning.execute.PlannedSystem`) is invoked when hosts go
down; it may spawn replacement workers (``EdgeCluster.add_worker``) and
return a new slot→worker hosting map, after which fusion recovers real
features for the failed slots instead of zero-filling them forever.

Each completed batch is booked once, as one frozen
:class:`~repro.serving.telemetry.BatchRecord`: its requests'
:class:`~repro.serving.telemetry.RequestTelemetry` share its summary, the
``serving.*_total`` counters read its outcome, and every span of the
batch is drawn from it.  :meth:`InferenceServer.stats` aggregates the
request records into a :class:`~repro.serving.telemetry.ServingReport`.
"""

from __future__ import annotations

import collections
import dataclasses
import itertools
import queue
import threading
import time
from typing import Callable

import numpy as np

from ..core.inference import predict, split_batch
from ..edge.runtime import EdgeCluster, WorkerSpec, await_delivery
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer, tracing_enabled
from .batcher import (
    MAX_INFLIGHT_BATCHES,
    Batch,
    BatchingConfig,
    DynamicBatcher,
    RequestError,
    ServedFuture,
)
from .telemetry import (
    BatchRecord,
    BatchSummary,
    RequestTelemetry,
    ServingReport,
    emit_spans,
)

# How long a rolling swap waits for the old worker's in-flight batches
# before retiring it anyway (those batches then zero-fill its slot).
SWAP_DRAIN_TIMEOUT_S = 30.0

# Telemetry records a server keeps: a ring buffer, so a long-lived server
# does not grow without bound.
MAX_RECORDS = 100_000


@dataclasses.dataclass(frozen=True)
class ServerConfig:
    batching: BatchingConfig = dataclasses.field(default_factory=BatchingConfig)
    worker_timeout_s: float = 5.0      # per-batch gather deadline


@dataclasses.dataclass
class _BatchContext:
    """One batch from scatter to completion; each serve step fills its part."""

    batch: Batch
    hosting: dict[str, str] = dataclasses.field(default_factory=dict)
    request_id: int | None = None      # dispatch id shared by every worker
    dispatched_at: float | None = None  # None: never dispatched
    dispatched_wall: float = 0.0
    bytes_out: int = 0
    scatter_s: float = 0.0
    send_s: dict[str, float] = dataclasses.field(default_factory=dict)
    features: dict[str, np.ndarray] = dataclasses.field(default_factory=dict)
    stats: dict[str, dict] = dataclasses.field(default_factory=dict)
    gather_s: float = 0.0
    outcome: str | None = None         # set when the batch cannot be fused
    missing: tuple[str, ...] = ()      # slots answered without features
    fusion_start: float = 0.0
    fusion_s: float = 0.0


class InferenceServer:
    """Queue -> dynamic batcher -> concurrent scatter/gather -> fusion."""

    def __init__(self, cluster: EdgeCluster, fusion,
                 config: ServerConfig | None = None,
                 replanner: Callable[["InferenceServer", list[str]],
                                     dict[str, str] | None] | None = None):
        self.config = config or ServerConfig()
        self._cluster = cluster
        self._fusion = fusion
        self._batcher = DynamicBatcher(self.config.batching)
        self._thread: threading.Thread | None = None
        # The completion stage: gathered batches in dispatch order (None
        # ends it), the thread that completes them, and the slots that
        # bound how many batches sit between scatter and completion.
        self._completions: "queue.SimpleQueue[_BatchContext | None]" = \
            queue.SimpleQueue()
        self._completer: threading.Thread | None = None
        self._pipeline = threading.Semaphore(MAX_INFLIGHT_BATCHES)
        self._lock = threading.Lock()
        self._records: "collections.deque[RequestTelemetry]" = \
            collections.deque(maxlen=MAX_RECORDS)
        self._started_at = 0.0
        self._stopped_at: float | None = None
        self._health_snapshot: dict[str, str] | None = None
        self._input_shape: tuple[int, ...] | None = None
        # Fusion layout: one slot per sub-model (captured at first start),
        # each hosted by some worker.  Replanning rewrites the hosting;
        # rolling swaps retarget single slots from other threads, so all
        # hosting reads/writes go through _hosting_lock and the serve
        # loop works from a per-batch snapshot.  _inflight_hosts maps each
        # batch id to the workers that still owe it a reply; _drained is
        # notified when the serve loop has settled a batch's replies.
        self._replanner = replanner
        self._slots: list[str] = []
        self._hosting: dict[str, str] = {}
        self._hosting_lock = threading.Lock()
        self._drained = threading.Condition(self._hosting_lock)
        self._inflight_hosts: dict[int, set[str]] = {}
        self._slot_dims: dict[str, int] = {}
        self._replan_attempted: set[str] = set()
        self._started_wall: float | None = None
        registry = get_registry()
        self._m_requests = registry.counter("serving.requests_total")
        self._m_dropped = registry.counter("serving.dropped_total")
        self._m_failed = registry.counter("serving.failed_total")
        self._m_degraded = registry.counter("serving.degraded_total")
        self._m_swaps = registry.counter("serving.swaps_total")

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._thread is not None:
            raise RuntimeError("server already started")
        cluster_was_down = not self._cluster.started
        if cluster_was_down:
            self._cluster.start()
        if self._batcher.closed:       # restarting after stop(): fresh queue
            self._batcher = DynamicBatcher(self.config.batching)
        dims = self._cluster.feature_dims()
        if not self._slots:
            # First start: one slot per worker, in cluster (= fusion
            # training) order.  Kept across restarts so recovery workers
            # added by replanning never become extra slots.
            self._slots = list(self._cluster.worker_ids)
            self._slot_dims = {slot: dims[slot] for slot in self._slots}
        # Under the lock: a swap_worker or hosting() racing a restart must
        # see either the old map or the fresh identity map, never a
        # half-written one.
        with self._hosting_lock:
            if cluster_was_down or not self._hosting:
                # Fresh processes for every spec: identity hosting is
                # correct again.  When the cluster survived the stop
                # (shutdown_cluster=False), keep the replanned hosting —
                # the original workers may still be dead.
                self._hosting = {slot: slot for slot in self._slots}
                self._replan_attempted = set()
        self._input_shape = self._expected_input_shape()
        self._stopped_at = None
        self._health_snapshot = None
        self._started_at = time.perf_counter()
        self._started_wall = time.time()
        self._completer = threading.Thread(target=self._completion_loop,
                                           name="repro-completion",
                                           daemon=True)
        self._completer.start()
        self._thread = threading.Thread(target=self._serve_loop,
                                        name="repro-serving", daemon=True)
        self._thread.start()

    def stop(self, shutdown_cluster: bool = True) -> None:
        """Stop serving.  Idempotent.  Every batch already dispatched is
        completed (or failed) once; requests still queued fail cleanly."""
        if self._thread is None:
            return
        self._batcher.close()
        self._thread.join(timeout=30)
        self._completer.join(timeout=30)
        self._thread = self._completer = None
        self._stopped_at = time.perf_counter()
        # Cluster shutdown clears its down-map; freeze health for
        # post-stop stats()/worker_health() calls.
        self._health_snapshot = self.worker_health()
        self._complete(_BatchContext(Batch(self._batcher.drain())),
                       "server stopped")
        if shutdown_cluster:
            self._cluster.shutdown()

    def __enter__(self) -> "InferenceServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def _expected_input_shape(self) -> tuple[int, ...]:
        """Per-sample input shape derived from the worker model configs."""
        config = self._cluster.specs[0].model_config
        size = int(config["image_size"])
        return (int(config["in_channels"]), size, size)

    def submit(self, x: np.ndarray) -> ServedFuture:
        """Enqueue one request (a small stack of images); never blocks.

        Shape-mismatched and empty (zero-sample) requests are rejected
        here with a typed :class:`RequestError`, so one bad client cannot
        poison the batch its request would have been coalesced into.
        """
        if self._thread is None:
            raise RuntimeError("server not started; use start() or a with-block")
        # Canonicalize to the wire dtype up front: a float64 client must
        # not double the bytes (and emulated transfer time) of the batch
        # its request is coalesced into.
        x = np.ascontiguousarray(x, dtype=np.float32)
        if x.ndim == 3:                # single image -> batch of one
            x = x[None]
        if x.shape[1:] != self._input_shape or len(x) == 0:
            self._m_dropped.inc()
            raise RequestError(
                f"bad request shape {x.shape}; this fleet serves a "
                f"non-empty stack of samples of shape {self._input_shape}")
        telemetry = RequestTelemetry(request_id=self._cluster.next_request_id(),
                                     num_samples=len(x),
                                     enqueued_at=time.perf_counter(),
                                     enqueued_wall=time.time())
        future = ServedFuture(telemetry.request_id, x, telemetry)
        try:
            self._batcher.submit(future)
        except RequestError:
            self._m_dropped.inc()
            raise
        self._m_requests.inc()
        return future

    def infer(self, x: np.ndarray, timeout: float | None = 60.0) -> np.ndarray:
        """Synchronous convenience wrapper: submit and wait for labels."""
        return self.submit(x).result(timeout)

    # ------------------------------------------------------------------
    @property
    def cluster(self) -> EdgeCluster:
        """The underlying fleet (e.g. for health probes or kill injection)."""
        return self._cluster

    @property
    def slots(self) -> list[str]:
        """Fusion-layout slot ids (one per sub-model), in fusion order."""
        return list(self._slots)

    def hosting(self) -> dict[str, str]:
        """Current slot→worker hosting map (identity until a replan/swap)."""
        with self._hosting_lock:
            return dict(self._hosting)

    def swap_worker(self, slot: str, spec: WorkerSpec) -> str:
        """Zero-downtime rolling swap: replace ``slot``'s hosting worker.

        The rolling-deployment primitive: boot ``spec`` (e.g. a worker
        carrying a new model artifact), wait until it reports ready,
        atomically retarget the fusion slot at it, wait until no
        in-flight batch still owes the old worker a reply, then retire
        the old worker.  Requests are never dropped: batches dispatched
        before the swap gather from the old worker (still alive until
        drained), batches after it from the new one.  A reply already
        received is delivered and fused even if its worker is retired
        while it is on the emulated wire.

        The replacement must produce the slot's feature width (the
        fusion MLP's input layout is immutable).  Raises if the new
        worker fails to start — the old worker keeps serving, so a bad
        artifact cannot take the slot down.  Returns the new worker id.
        """
        if not self._slots:
            raise RuntimeError("no fusion layout yet; start the server "
                               "before swapping workers")
        if slot not in self._slots:
            raise KeyError(f"unknown fusion slot {slot!r}; "
                           f"slots: {self._slots}")
        expected = self._slot_dims[slot]
        if spec.feature_dim != expected:
            raise ValueError(
                f"slot {slot!r} fuses {expected}-dim features but the "
                f"replacement produces {spec.feature_dim}")
        # Spawn first, swap second: the slot keeps its old worker until
        # the replacement has proven it can serve.
        self._cluster.add_worker(spec)
        with self._hosting_lock:
            old = self._hosting.get(slot, slot)
            self._hosting[slot] = spec.worker_id
            # The swap runs on a caller thread while _maybe_replan runs on
            # the serve thread; the attempted-set is shared mutable state
            # and rides under the same lock as the hosting map.
            self._replan_attempted.discard(spec.worker_id)
        if old == spec.worker_id or not self._cluster.started:
            return spec.worker_id
        if old in set(self.hosting().values()):
            # The old worker still hosts another slot (co-hosted after a
            # replan); it must keep running.
            return spec.worker_id
        # Drain: wait until the serve loop has settled the old worker's
        # reply to every batch it was dispatched in, then retire it.  Even
        # on timeout the batch merely degrades (zero-fill) — it is never
        # dropped.
        with self._drained:
            self._drained.wait_for(
                lambda: not any(old in hosts
                                for hosts in self._inflight_hosts.values()),
                SWAP_DRAIN_TIMEOUT_S)
        self._cluster.mark_down(old, "retired by rolling swap")
        self._m_swaps.inc()
        return spec.worker_id

    def worker_health(self) -> dict[str, str]:
        """``worker_id -> "up"`` or the reason the worker was marked down."""
        if self._health_snapshot is not None:
            return dict(self._health_snapshot)
        down = self._cluster.down_workers
        return {wid: down.get(wid, "up") for wid in self._cluster.worker_ids}

    def records(self) -> list[RequestTelemetry]:
        with self._lock:
            return list(self._records)

    def stats(self, include_metrics: bool = False) -> ServingReport:
        end = self._stopped_at if self._stopped_at is not None \
            else time.perf_counter()
        metrics = get_registry().snapshot() if include_metrics else None
        return ServingReport.from_records(
            self.records(), wall_seconds=end - self._started_at,
            worker_health=self.worker_health(),
            started_at=self._started_wall, metrics=metrics)

    # ------------------------------------------------------------------
    def _serve_loop(self) -> None:
        """Take a pipeline slot, then a batch; scatter it and gather until
        its replies are settled; hand it to the completion thread.

        Batch *k*'s replies are in before batch *k+1* is dispatched, so
        no reply can be matched to the wrong batch."""
        try:
            while True:
                self._pipeline.acquire()
                batch = self._batcher.next_batch()
                if batch is None:
                    self._pipeline.release()   # all slots free for a restart
                    return
                ctx = _BatchContext(batch)
                try:
                    self._dispatch(ctx)
                except Exception as exc:   # a bad batch must not kill the server
                    ctx.outcome = f"serving failed: {exc}"
                finally:
                    with self._drained:
                        self._inflight_hosts.pop(ctx.request_id, None)
                        self._drained.notify_all()
                self._completions.put(ctx)
        finally:
            self._completions.put(None)

    def _completion_loop(self) -> None:
        """Complete the gathered batches in dispatch order until the serve
        loop ends; each completion frees a pipeline slot."""
        while (ctx := self._completions.get()) is not None:
            try:
                self._finish(ctx)
            except Exception as exc:   # a bad batch must not kill the server
                self._complete(ctx, f"serving failed: {exc}")
            finally:
                self._pipeline.release()

    def _dispatch(self, ctx: _BatchContext) -> None:
        """Scatter -> gather until the replies are settled; sets
        ``ctx.outcome`` when the batch cannot be fused."""
        pending = self._scatter(ctx)
        if not pending:
            # Whole fleet down: answering from an all-zeros fusion input
            # would be a constant-label lie — fail loudly instead.
            ctx.missing = tuple(self._slots)
            ctx.outcome = "no live workers"
            return
        ctx.features, ctx.stats, _ = self._cluster.gather(
            ctx.request_id, pending,
            ctx.dispatched_at + self.config.worker_timeout_s)
        ctx.gather_s = time.perf_counter() - ctx.dispatched_at
        if not ctx.features:
            # Every dispatched worker errored (or died) on this batch: an
            # all-zeros fusion would fabricate a constant label too.
            ctx.outcome = "no worker produced features for this batch"

    def _finish(self, ctx: _BatchContext) -> None:
        """Wait for delivery -> zero-fill + fuse -> complete -> replan."""
        outcome = ctx.outcome
        if outcome is None:
            await_delivery(ctx.stats.values())
            ctx.gather_s = time.perf_counter() - ctx.dispatched_at
            outcome = self._fuse(ctx)
        self._complete(ctx, outcome)
        # Answers went out above; now try to recover the failed slots so
        # later batches fuse real features again.
        if ctx.missing:
            self._maybe_replan()

    def _scatter(self, ctx: _BatchContext) -> list[str]:
        """Send the batch to every live hosting worker under one request
        id; returns the workers that took it."""
        ctx.dispatched_at = time.perf_counter()
        ctx.dispatched_wall = time.time()
        x = ctx.batch.concatenated()
        ctx.request_id = self._cluster.next_request_id()
        # Snapshot the hosting map for this whole batch: a rolling swap
        # landing mid-batch must not change which worker's features fill
        # which slot after dispatch already happened.  _inflight_hosts
        # tells swap_worker which workers still owe this batch a reply.
        with self._hosting_lock:
            ctx.hosting = dict(self._hosting)
            self._inflight_hosts[ctx.request_id] = set(ctx.hosting.values())
        # submit() detects dead processes / closed pipes itself and marks
        # the worker down, so no liveness pre-check here.
        pending = []
        for worker_id in sorted(set(ctx.hosting.values())):
            sent = time.perf_counter()
            if self._cluster.submit(worker_id, ctx.request_id, x):
                pending.append(worker_id)
            ctx.send_s[worker_id] = time.perf_counter() - sent
        ctx.scatter_s = time.perf_counter() - ctx.dispatched_at
        ctx.bytes_out = x.nbytes * len(pending)
        return pending

    def _fuse(self, ctx: _BatchContext) -> np.ndarray:
        """Degraded fusion: zero-fill the feature slot of every sub-model
        whose hosting worker did not answer, preserving the concatenation
        layout the fusion MLP was trained on.  Returns the labels."""
        ctx.missing = tuple(slot for slot in self._slots
                            if ctx.hosting[slot] not in ctx.features)
        ordered = []
        for slot in self._slots:
            host = ctx.hosting[slot]
            if host in ctx.features:
                ordered.append(ctx.features[host])
            else:
                ordered.append(np.zeros(
                    (ctx.batch.num_samples, self._slot_dims[slot]),
                    dtype=np.float32))
        ctx.fusion_start = time.perf_counter()
        logits = predict(self._fusion, np.concatenate(ordered, axis=-1),
                         keep_workspaces=True)
        ctx.fusion_s = time.perf_counter() - ctx.fusion_start
        return logits.argmax(axis=-1)

    def _complete(self, ctx: _BatchContext, outcome: np.ndarray | str) -> None:
        """Answer every unanswered request of the batch with its slice of
        the labels, or with ``RequestError(outcome)``, and book the batch:
        the one place that does, so each request is answered and recorded
        once.  Telemetry, records, counters and spans all read the one
        record; spans go out after the futures resolve, while closed-loop
        clients resubmit."""
        batch = ctx.batch
        error = outcome if isinstance(outcome, str) else None
        labels = itertools.repeat(None) if error is not None \
            else split_batch(outcome, batch.sizes)
        unanswered = [(future, answer) for future, answer
                      in zip(batch.requests, labels) if not future.done()]
        if not unanswered:
            return
        record = self._record(
            ctx, error, tuple(future.telemetry for future, _ in unanswered))
        for future, answer in unanswered:
            future.telemetry.batch = record.summary
            if error is None:
                future.set_result(answer.copy())
            else:
                future.set_error(RequestError(error))
        with self._lock:
            self._records.extend(record.requests)
        if error is not None:
            self._m_failed.inc(len(unanswered))
        elif record.summary.degraded:
            self._m_degraded.inc(len(unanswered))
        if tracing_enabled():
            emit_spans(record, get_tracer())

    @staticmethod
    def _record(ctx: _BatchContext, error: str | None,
                requests: tuple[RequestTelemetry, ...]) -> BatchRecord:
        """The batch as booked: ``ctx`` and its outcome, frozen.  A failed
        batch books its dispatch and none of its answer."""
        batch, completed_at = ctx.batch, time.perf_counter()
        if ctx.dispatched_at is None:
            return BatchRecord(BatchSummary(completed_at=completed_at),
                               requests, error)
        answered = {}
        if error is None:
            replies = ctx.stats.values()
            answered = dict(
                fusion_s=ctx.fusion_s,
                emulated_compute_s=max(
                    (s["emulated_compute_s"] for s in replies), default=0.0),
                emulated_transfer_s=max(
                    (s["emulated_transfer_s"] for s in replies), default=0.0),
                bytes_out=ctx.bytes_out,
                bytes_in=int(sum(s.get("bytes_out", 0.0) for s in replies)),
                degraded=bool(ctx.missing))
        summary = BatchSummary(
            ctx.dispatched_at, completed_at, len(batch.requests),
            batch.num_samples, ctx.gather_s, workers_down=ctx.missing,
            **answered)
        return BatchRecord(
            summary, requests, error, batch_id=ctx.request_id,
            dispatched_wall=ctx.dispatched_wall,
            workers=len(set(ctx.hosting.values())), scatter_s=ctx.scatter_s,
            send_s=ctx.send_s, replies=ctx.stats,
            fusion_start=ctx.fusion_start)

    def _maybe_replan(self) -> None:
        """Invoke the replanner once per newly-down hosting worker.

        The hook runs on the serving thread, may spawn replacement workers
        via ``cluster.add_worker``, and returns an updated slot→worker
        hosting map (or ``None`` to stay in zero-fill degraded mode).  A
        host is only attempted once: a failed or infeasible replan must
        not turn into a respawn storm.
        """
        if self._replanner is None:
            return
        down = set(self._cluster.down_workers)
        with self._hosting_lock:
            hosts = set(self._hosting.values())
            attempted = set(self._replan_attempted)
        affected = sorted(
            host for host in hosts
            if (host in down or not self._cluster.is_alive(host))
            and host not in attempted)
        if not affected:
            return
        with self._hosting_lock:
            self._replan_attempted.update(affected)
        try:
            updated = self._replanner(self, affected)
        except Exception:              # infeasible/failed replan: degrade
            updated = None
        if updated:
            # Only known slots may be re-hosted; anything else is dropped.
            with self._hosting_lock:
                self._hosting.update({slot: worker
                                      for slot, worker in updated.items()
                                      if slot in self._hosting})
