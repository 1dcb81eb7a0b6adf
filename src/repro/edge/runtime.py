"""Emulated edge-device runtime over pluggable transports.

Where :mod:`repro.edge.simulator` predicts timing analytically, this module
actually *runs* the deployment: every sub-model is a worker (an OS
process, a thread, or a TCP-connected process, depending on the
:mod:`~repro.edge.transport` chosen) that computes its features for real;
inputs and features cross the worker boundary.  This is the "emulate
devices as processes" substitution for the paper's physical Raspberry Pi
testbed.

Features ship through a :mod:`~repro.edge.codec` (``WorkerSpec.codec``):
the worker encodes its ``(N, D)`` float32 features, the emulated link is
charged for the **encoded** byte count, and the parent decodes — so a
smaller codec is directly a faster fleet on the paper's 2 Mbps links.

A worker only computes.  Emulated time lives in the cluster
(:meth:`EdgeCluster._emulate`), keyed by ``spec.device.device_id``: as in
the paper and the simulator's model, a device is one CPU and one uplink, FIFO
resources every sub-model placed on it queues on (Alg. 3 with G > N, a
replanned orphan, a rolling swap's two workers).  A device computes batch
*k+1* while batch *k* is on the wire; transfers on one link never overlap.

A worker rebuilds its sub-model from ``WorkerSpec.model_kind``, a key of
the fixed :data:`MODEL_KINDS` table: ``vit`` (the paper's sub-models),
``vgg`` and ``snn`` (the Table III / Fig. 7 baselines).  A kind or codec
name missing from its table fails the worker's start, typed.

The wire protocol is request-id tagged so several in-flight requests can be
distinguished (the serving layer pipelines them) and the gather side never
blocks on a dead worker: every receive goes through poll-with-timeout plus
a worker-liveness check, and failures surface as the typed
:class:`WorkerFailure` instead of a hang.

Boot is a handshake over the worker's own channel — the only one, used
by :meth:`EdgeCluster.start` for the whole fleet and by
:meth:`EdgeCluster.add_worker` for one worker.  The transport launches
the batch at once and hands each worker its ``spec`` (sent with an empty
``state``: no weights travel as a process argument); the cluster then
streams each worker's state dict as one ``weights`` message per array,
read from the module's own arrays that the spec views, and waits — for a
bounded time, watching for children that died — until every worker has
answered ``ready``.  The worker adopts each array into its model as it
arrives, so it holds its parameters once: no blob, no second state dict,
no copy.  Any failure tears down every worker of the batch before it is
raised.

Messages parent -> worker (built/read only via :mod:`repro.edge.wire`,
which owns the protocol's shape table)::

    ("spec", spec)                      # once, first; sent by the transport
    ("weights", name, array)            # one per state-dict entry
    ("weights", None, None)             # end of the weights
    ("infer", request_id, x)            # run forward_features over x
    ("stop",)                           # drain and exit

Messages worker -> parent::

    ("hello", worker_id)                        # tcp only: names the dial-back
    ("ready", worker_id)                        # once, after the last weights
    ("failed", worker_id, detail)               # startup failure
    ("features", request_id, encoded, stats)    # per-request success
    ("error", request_id | None, message)       # per-request failure
    ("stopped", worker_id)                      # reply to "stop"

``encoded`` is an :class:`~repro.edge.codec.EncodedFeatures`;
:meth:`EdgeCluster.poll` decodes it back to a float32 array before
handing the reply to callers, so consumers never see codec internals.

A worker traces nothing.  Its ``stats`` report the intervals it measured
(``host_compute_s``, of which ``forward_s`` is the forward and the rest
the encode); the cluster stamps when the reply was received
(``received_at``), how long its decode took (``decode_s``) and its codec,
and the serving layer emits the worker's spans from those on its own
clock (:mod:`repro.serving.server`).
"""

from __future__ import annotations

import dataclasses
import math
import threading
import time
from typing import Any, Callable, Iterable, Iterator, Mapping

import numpy as np

from .. import nn
from ..obs.metrics import get_registry
from ..models.snn import ConvSNN, SNNConfig
from ..models.vgg import VGG, VGGConfig
from ..models.vit import ViTConfig, VisionTransformer
from ..profiling.flops import paper_flops, snn_flops, vgg_flops
from . import wire
from .codec import EncodedFeatures, get_codec
from .device import DeviceModel
from .network import LinkModel, tc_capped_link
from .transport import Transport, WorkerHandle, get_transport, reap

# Longest single wait of EdgeCluster.gather: bounds how late it notices a
# worker that died without a word (a reply ends the wait at once).
_GATHER_STEP_S = 0.02
# Seconds a booting worker has to answer READY.
READY_TIMEOUT_S = 30.0
# Seconds infer_features waits for every worker's features.
INFER_TIMEOUT_S = 60.0
# Forward chunk size inside a worker.
WORKER_BATCH = 64


class WorkerFailure(RuntimeError):
    """A worker process died, timed out, or replied with an error."""

    def __init__(self, worker_id: str, reason: str):
        super().__init__(f"worker {worker_id!r} failed: {reason}")
        self.worker_id = worker_id
        self.reason = reason


# ----------------------------------------------------------------------
# Model kinds: the WorkerSpec.model_kind string names the config decoder
# and constructor that rebuild a sub-model inside a worker, and the
# per-sample MAC profiler the planner scores it with.
@dataclasses.dataclass(frozen=True)
class ModelKind:
    config_from_dict: Callable[[dict], Any]
    build: Callable[..., nn.Module]    # (config, rng=None) -> module
    flops: Callable[[Any], float]      # config -> per-sample MACs


MODEL_KINDS: dict[str, ModelKind] = {
    "vit": ModelKind(ViTConfig.from_dict, VisionTransformer, paper_flops),
    "vgg": ModelKind(VGGConfig.from_dict, VGG, vgg_flops),
    "snn": ModelKind(SNNConfig.from_dict, ConvSNN, snn_flops),
}


def _kind(kind: str) -> ModelKind:
    try:
        return MODEL_KINDS[kind]
    except KeyError:
        raise KeyError(f"unknown model kind {kind!r}; known kinds: "
                       f"{sorted(MODEL_KINDS)}") from None


def build_model(kind: str, config: dict,
                rng: np.random.Generator | None = None) -> nn.Module:
    """A fresh ``kind`` module from its config dict, drawn from ``rng``."""
    entry = _kind(kind)
    return entry.build(entry.config_from_dict(dict(config)), rng=rng)


def _state_views(model: nn.Module) -> dict[str, np.ndarray]:
    """Read-only views of ``model``'s own parameter and buffer arrays, in
    ``Module.state_dict()`` order: the weights without a copy."""
    views = {name: p.data.view() for name, p in model.named_parameters()}
    views.update((name, buf.view()) for name, buf in model.named_buffers())
    for view in views.values():
        view.flags.writeable = False
    return views


@dataclasses.dataclass
class WorkerSpec:
    """Everything needed to reconstruct one sub-model inside a worker.

    ``state`` maps each state-dict name to a read-only view of the
    module's own array (a K-major weight is viewed in that layout), so a
    spec holds no weights of its own: building and booting a fleet keeps
    nothing beyond the modules it was built from.  A slot the module
    rebinds later (a training-mode ``Linear``'s first ``eval()``) leaves
    the spec viewing, and keeping alive, the array it had.
    """

    worker_id: str
    model_kind: str                    # any key of MODEL_KINDS
    model_config: dict
    state: Mapping[str, np.ndarray]
    flops_per_sample: float
    device: DeviceModel
    link: LinkModel
    feature_dim: int                   # width of forward_features output
    codec: str = "raw32"               # repro.edge.codec name for features
    quant: str = "fp32"                # weight scheme of state

    def state_items(self) -> Iterator[tuple[str, np.ndarray]]:
        """``(name, array)`` pairs of ``state`` in C order, as
        ``Module.state_dict()`` gives them; a K-major array is copied
        as it is asked for and never kept here."""
        for name, array in self.state.items():
            yield name, np.ascontiguousarray(array)

    @property
    def state_blob(self) -> bytes:
        """``state`` as ``nn.state_dict_to_bytes`` npz bytes, built on
        each call.  Nothing on the boot path reads it; the e2e
        benchmark's state-load probe does."""
        return nn.state_dict_to_bytes(dict(self.state_items()))

    @staticmethod
    def from_model(worker_id: str, model: nn.Module, kind: str,
                   flops_per_sample: float, device: DeviceModel,
                   link: LinkModel | None = None) -> "WorkerSpec":
        """Spec for a concrete module of any model kind, shipping raw32
        features.

        A quantized module is detected here (its state carries int8
        weight buffers), so the worker knows to apply the same module
        surgery before loading.
        """
        _kind(kind)                    # fail fast on unknown names
        return WorkerSpec(
            worker_id=worker_id,
            model_kind=kind,
            model_config=model.config.to_dict(),
            state=_state_views(model),
            flops_per_sample=flops_per_sample,
            device=device,
            link=link or tc_capped_link(),
            feature_dim=int(model.feature_dim()),
            quant="int8" if nn.is_quantized(model) else "fp32",
        )

    @staticmethod
    def from_plan(plan, model_id: str, model: nn.Module,
                  worker_id: str | None = None) -> "WorkerSpec":
        """Spec for one planned sub-model, on its plan-assigned device.

        ``plan`` is a :class:`repro.planning.DeploymentPlan` (duck-typed
        here to keep the edge layer free of planning imports): the
        sub-model's kind/config/footprint, the hosting ``DeviceModel``
        (``plan.device``) and its uplink (``plan.topology.link_of``) all
        come from the plan, the weights from the concrete ``model``.
        ``worker_id`` defaults to the model id,
        so plan-booted clusters address workers by sub-model.
        """
        sub = plan.submodel(model_id)
        device = plan.device(plan.mapping[model_id])
        return WorkerSpec(
            worker_id=worker_id or model_id,
            model_kind=sub.model_kind,
            model_config=dict(sub.model_config),
            state=_state_views(model),
            flops_per_sample=sub.flops_per_sample,
            device=device,
            link=plan.topology.link_of(device.device_id),
            feature_dim=int(sub.feature_dim),
            codec=plan.codec,
            quant=sub.quant,
        )


def _send_weights(handle: WorkerHandle, spec: WorkerSpec) -> None:
    """Stream a spec's state to a booting worker, one array at a time.

    Sends are paced by the worker (a full pipe blocks until it reads).
    A worker that is gone is not reported here: the wait for its READY
    finds the EOF, or the FAILED reply it left behind.  An entry that
    cannot be sent is this worker's start-up failure.
    """
    try:
        for name, array in spec.state_items():
            handle.send(wire.weights_message(name, array))
        handle.send(wire.weights_end_message())
    except ConnectionError:            # broken pipe, reset: the worker died
        pass
    except Exception as exc:
        raise RuntimeError(
            f"worker {handle.worker_id} failed to start: "
            f"{type(exc).__name__}: {exc}") from exc


def _received_weights(conn):
    """The ``(name, array)`` pairs a booting worker is sent, as they
    arrive, up to the end marker."""
    while True:
        message = wire.check(conn.recv())
        if wire.command(message) != wire.WEIGHTS:
            raise wire.WireError(
                f"expected weights, got {wire.command(message)!r}")
        entry = wire.weights_entry(message)
        if entry is None:
            return
        yield entry


def _worker_main(spec: WorkerSpec, conn) -> None:
    """Entry point of a worker (any transport): pure compute."""
    from ..core.inference import extract_features

    weights = _received_weights(conn)
    try:
        # A model kind or codec this module does not know is a typed
        # start-up failure, reported below, not a death that leaves the
        # parent a bare EOFError.
        #
        # The model is built only to be loaded, so nothing is drawn for
        # it: its parameters are unwritten storage until the strict load
        # has put a received array in every slot (a state that misses
        # one fails the start).  Each array becomes the model's own
        # storage as it arrives: parameters plus one array in flight is
        # all this worker ever holds.
        with nn.init.unwritten():
            model = build_model(spec.model_kind, spec.model_config)
            if spec.quant != "fp32":
                model = nn.quantize_module(model, scheme=spec.quant)
        model.load_state_dict(weights, adopt=True)
        model.eval()
        codec = get_codec(spec.codec)
    except Exception as exc:
        try:
            for _ in weights:          # the parent streams to the end marker
                pass
            conn.send(wire.failed_message(spec.worker_id,
                                          f"{type(exc).__name__}: {exc}"))
        except (BrokenPipeError, EOFError, OSError, wire.WireError):
            pass
        return
    conn.send(wire.ready_message(spec.worker_id))
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return                     # parent went away; nothing to reply to
        try:
            command = wire.command(wire.check(message))
        except wire.WireError as exc:  # malformed: say so, keep serving
            conn.send(wire.error_message(None, str(exc)))
            continue
        if command == wire.STOP:
            conn.send(wire.stopped_message(spec.worker_id))
            return
        if command != wire.INFER:
            conn.send(wire.error_message(
                None, f"unknown command {command!r}"))
            continue
        request_id = wire.request_id(message)
        x = wire.payload(message)
        try:
            started = time.perf_counter()
            # Batched, graph-free, workspace-cached: repeated requests reuse
            # the same scratch buffers, which is exactly the long-lived-server
            # shape of an edge deployment.
            features = extract_features(model, x, WORKER_BATCH,
                                        keep_workspaces=True)
            forward_done = time.perf_counter()
            encoded = codec.encode(features)
            done = time.perf_counter()
            # Reply at once: EdgeCluster._emulate charges the device time.
            stats = {"host_compute_s": done - started,
                     "forward_s": forward_done - started,
                     "bytes_out": float(encoded.nbytes),
                     "bytes_in": float(np.asarray(x).nbytes)}
            conn.send(wire.features_message(request_id, encoded, stats))
        except Exception as exc:       # an infer error must not kill the loop
            conn.send(wire.error_message(
                request_id, f"{type(exc).__name__}: {exc}"))


def await_delivery(stats: Iterable[dict]) -> None:
    """Sleep until every reply whose ``stats`` :meth:`EdgeCluster.gather`
    returned has been delivered over its emulated link."""
    wait = max((s["delivered_at"] for s in stats), default=0.0) \
        - time.perf_counter()
    if wait > 0:
        time.sleep(wait)


@dataclasses.dataclass
class InferenceTiming:
    """Timing report for one ``EdgeCluster.infer_features`` call."""

    wall_seconds: float
    per_worker: dict[str, dict]


class EdgeCluster:
    """A fleet of emulated devices plus a local fusion stage.

    Two client surfaces:

    * the synchronous scatter/gather :meth:`infer_features`, which raises
      :class:`WorkerFailure` on a dead, erroring, or timed-out worker
      instead of hanging; and
    * the primitives :meth:`submit` / :meth:`gather` / :meth:`mark_down`,
      which the serving layer (:mod:`repro.serving`) uses to drive all
      workers concurrently and keep answering in degraded mode when some
      of them die.  :meth:`gather` is also what :meth:`infer_features`
      waits with, so both sides share one reply policy.

    ``transport`` selects the worker substrate (see
    :mod:`repro.edge.transport`): ``"multiprocess"`` (default, one OS
    process per worker), ``"inprocess"`` (threads — cheap spawns for
    tests and big simulated fleets), or ``"tcp"`` (processes dialing back
    over loopback TCP, the multi-host-capable wire).  A
    :class:`~repro.edge.transport.Transport` instance is also accepted.

    ``time_scale`` is the share of emulated device time (:meth:`_emulate`)
    really waited out: 0 serves at host speed, 1 at the modelled speed.
    """

    def __init__(self, workers: list[WorkerSpec], time_scale: float = 0.0,
                 transport: str | Transport = "multiprocess"):
        if not workers:
            raise ValueError("need at least one worker")
        # Own copy: add_worker adds (replanning/rolling swaps), and
        # mutating the caller's list would leak replacement specs into
        # every cluster later built from it.
        self._specs = {w.worker_id: w for w in workers}
        if len(self._specs) != len(workers):
            raise ValueError("worker ids must be unique")
        self._time_scale = time_scale
        self._transport = get_transport(transport)
        self._handles: dict[str, WorkerHandle] = {}
        self._down: dict[str, str] = {}      # worker_id -> failure reason
        self._started = False
        self._request_counter = 0
        self._request_counter_lock = threading.Lock()
        # Per-worker instrument cache + in-flight accounting: one registry
        # lookup per worker lifetime instead of per dispatch.
        self._worker_metrics: dict[str, dict] = {}
        self._outstanding: dict[str, int] = {}
        # device_id -> (cpu_free, link_free): the perf_counter instants
        # that device's CPU and uplink finish the work already charged.
        self._device_free: dict[str, tuple[float, float]] = {}

    def _metrics_for(self, worker_id: str) -> dict:
        metrics = self._worker_metrics.get(worker_id)
        if metrics is None:
            registry = get_registry()
            metrics = self._worker_metrics[worker_id] = {
                "dispatch": registry.counter("edge.dispatch_total",
                                             worker=worker_id),
                "replies": registry.counter("edge.replies_total",
                                            worker=worker_id),
                "inflight": registry.gauge("edge.inflight",
                                           worker=worker_id),
                "bytes_out": registry.counter("wire.bytes_out_total",
                                              worker=worker_id),
                "bytes_in": registry.counter("wire.bytes_in_total",
                                             worker=worker_id),
            }
        return metrics

    def _note_reply(self, worker_id: str, nbytes: int = 0) -> None:
        """Account one reply: decrement in-flight (floored — stale replies
        from an aborted batch must not go negative) and count wire bytes."""
        metrics = self._metrics_for(worker_id)
        left = max(0, self._outstanding.get(worker_id, 0) - 1)
        self._outstanding[worker_id] = left
        metrics["inflight"].set(left)
        metrics["replies"].inc()
        if nbytes:
            metrics["bytes_in"].inc(nbytes)

    @classmethod
    def from_plan(cls, plan, models: list[nn.Module],
                  time_scale: float = 0.0,
                  transport: str | Transport = "multiprocess",
                  ) -> "EdgeCluster":
        """Boot a cluster straight from a deployment plan.

        ``models`` carries the concrete (trained) modules aligned with
        ``plan.submodels``; worker ids are the plan's model ids.  The
        plan's ``codec`` rides into every worker spec.
        """
        if len(models) != len(plan.submodels):
            raise ValueError(
                f"plan has {len(plan.submodels)} sub-models but "
                f"{len(models)} models were supplied")
        specs = [WorkerSpec.from_plan(plan, sub.model_id, model)
                 for sub, model in zip(plan.submodels, models)]
        return cls(specs, time_scale=time_scale, transport=transport)

    # ------------------------------------------------------------------
    @property
    def specs(self) -> list[WorkerSpec]:
        return list(self._specs.values())

    @property
    def started(self) -> bool:
        return self._started

    @property
    def worker_ids(self) -> list[str]:
        return list(self._specs)

    @property
    def down_workers(self) -> dict[str, str]:
        """Workers marked down, mapped to the failure reason."""
        return dict(self._down)

    @property
    def transport(self) -> Transport:
        return self._transport

    def feature_dims(self) -> dict[str, int]:
        """Per-worker feature width (used for zero-filled degraded fusion)."""
        return {wid: spec.feature_dim for wid, spec in self._specs.items()}

    def next_request_id(self) -> int:
        # Client threads (telemetry ids) and the serving loop (dispatch
        # ids) share this counter, so the bump must be atomic.
        with self._request_counter_lock:
            self._request_counter += 1
            return self._request_counter

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Boot the whole fleet; on any failure nothing is left running
        (no worker, no listener) and the cluster can be started again."""
        if self._started:
            raise RuntimeError("cluster already started")
        try:
            handles = self._boot(self.specs)
        except BaseException:
            self._transport.close()
            raise
        self._handles = {handle.worker_id: handle for handle in handles}
        self._started = True

    def add_worker(self, spec: WorkerSpec) -> None:
        """Register one more worker; boot it immediately if running.

        This is the replanning primitive: after a device failure the
        planning layer reassigns the orphaned sub-models and adds fresh
        workers for them on surviving devices, while the cluster keeps
        serving.  Raises ``RuntimeError`` (and marks the worker down) if
        the new worker fails to report ready within ``READY_TIMEOUT_S``.
        """
        if spec.worker_id in self._specs:
            raise ValueError(f"duplicate worker id {spec.worker_id!r}")
        self._specs[spec.worker_id] = spec
        if not self._started:
            return                     # start() will boot it with the rest
        # The handle stays private until the worker reports ready: once
        # registered in _handles a concurrently-polling serving thread
        # would race this handshake for the channel and could consume
        # the "ready" message itself.
        try:
            handle, = self._boot([spec])
        except RuntimeError as exc:
            self._down[spec.worker_id] = str(exc)
            raise
        self._handles[spec.worker_id] = handle

    def _boot(self, specs: list[WorkerSpec]) -> list[WorkerHandle]:
        """The one start-up handshake: launch the batch, stream each
        worker its weights, wait for every READY.  Returns the handles in
        the order of ``specs``; tears all of them down if any step fails.
        """
        headers = [dataclasses.replace(spec, state={}) for spec in specs]
        handles = self._transport.launch(headers, _worker_main)
        try:
            for handle, spec in zip(handles, specs):
                _send_weights(handle, spec)
            self._await_ready(handles)
        except BaseException:
            reap(handles)
            raise
        return handles

    def _await_ready(self, handles: list[WorkerHandle]) -> None:
        """Block until every handle has answered READY with its own id.

        Raises ``RuntimeError`` naming the worker on a FAILED (or any
        other) reply, on a child that died without one (EOF, or not alive
        with nothing buffered), and when ``READY_TIMEOUT_S`` seconds pass
        with a worker still silent.
        """
        deadline = time.monotonic() + READY_TIMEOUT_S
        pending = {handle.worker_id: handle for handle in handles}
        while pending:
            remaining = deadline - time.monotonic()
            ready = self._transport.wait(list(pending.values()),
                                         min(max(remaining, 0.0), 0.05))
            for handle in ready:
                worker_id = handle.worker_id
                try:
                    message = handle.recv()
                except (EOFError, OSError) as exc:
                    raise RuntimeError(f"worker {worker_id} died during "
                                       f"startup") from exc
                try:
                    wire.check(message)
                except wire.WireError as exc:
                    raise RuntimeError(f"worker {worker_id} failed to "
                                       f"start: {exc}") from exc
                if wire.command(message) != wire.READY \
                        or wire.worker_id(message) != worker_id:
                    raise RuntimeError(
                        f"worker {worker_id} failed to start: "
                        f"{wire.startup_detail(message)}")
                del pending[worker_id]
            for worker_id, handle in pending.items():
                if not handle.alive() and not handle.poll(0):
                    raise RuntimeError(
                        f"worker {worker_id} died during startup")
            if pending and remaining <= 0:
                raise RuntimeError(
                    f"worker {sorted(pending)[0]} not ready within "
                    f"{READY_TIMEOUT_S}s")

    def shutdown(self) -> None:
        """Stop all workers.  Idempotent, and tolerant of dead workers."""
        if not self._started:
            return
        # Snapshot once: a concurrent mark_down (e.g. a rolling swap
        # retiring the worker it just drained) pops from _handles, and
        # mutating a dict mid-iteration kills the shutdown halfway.
        handles = list(self._handles.values())
        for handle in handles:
            try:
                handle.send(wire.stop_message())
            except (BrokenPipeError, OSError):
                pass                       # worker already gone
        for handle in handles:
            deadline = time.perf_counter() + 5.0
            while True:                    # drain stale replies until stopped
                remaining = deadline - time.perf_counter()
                if remaining <= 0 or not handle.poll(remaining):
                    break
                try:
                    if wire.command(handle.recv()) == wire.STOPPED:
                        break
                except (EOFError, OSError):
                    break
        for handle in handles:
            handle.join(timeout=10)
            handle.close()
        self._handles.clear()
        self._transport.close()
        self._down.clear()
        self._device_free.clear()
        self._started = False

    def __enter__(self) -> "EdgeCluster":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # Non-blocking primitives (the serving layer's dispatch surface).
    def is_alive(self, worker_id: str) -> bool:
        """Worker is up: not marked down and its worker still runs."""
        if not self._started or worker_id in self._down:
            return False
        handle = self._handles.get(worker_id)
        return handle is not None and handle.alive()

    def mark_down(self, worker_id: str, reason: str = "marked down") -> None:
        """Retire a worker: close its channel and kill its worker."""
        if worker_id in self._down:
            return
        self._down[worker_id] = reason
        # A retired worker owes no more replies: zero its in-flight gauge
        # (but never touch series of workers that never dispatched).
        if worker_id in self._worker_metrics:
            self._outstanding[worker_id] = 0
            self._worker_metrics[worker_id]["inflight"].set(0)
        handle = self._handles.pop(worker_id, None)
        if handle is not None:
            handle.close()
            if handle.alive():
                handle.kill()

    def has_buffered_reply(self, worker_id: str) -> bool:
        """A reply is sitting in the channel even if the worker already died."""
        handle = self._handles.get(worker_id)
        try:
            return handle is not None and handle.poll(0)
        except (OSError, ValueError):
            return False

    def kill_worker(self, worker_id: str) -> None:
        """Hard-kill a worker (crash injection for tests/demos).

        Deliberately does *not* mark the worker down: the point is to
        exercise the failure-detection path, which must notice the death
        via channel EOF / worker liveness and degrade on its own.  A
        no-op for unknown ids or after shutdown (e.g. a late kill timer).
        """
        handle = self._handles.get(worker_id)
        if handle is None:
            return
        handle.kill()

    def submit(self, worker_id: str, request_id: int, x: np.ndarray) -> bool:
        """Dispatch one request without blocking on the reply.

        Inputs are canonicalized to contiguous float32 here — the dtype
        the workers compute in — so a float64 (or integer) caller cannot
        silently double the bytes crossing the worker boundary and the
        emulated transfer charged on them.

        Returns ``False`` (after marking the worker down) when the worker
        cannot accept work — dead worker or closed channel.
        """
        if not self._started:
            raise RuntimeError("cluster not started; use start() or a with-block")
        handle = self._handles.get(worker_id)
        if handle is None:
            return False
        if not handle.alive():
            self.mark_down(worker_id, "process died")
            return False
        x = np.ascontiguousarray(x, dtype=np.float32)
        try:
            handle.send(wire.infer_message(request_id, x))
        except (BrokenPipeError, OSError):
            self.mark_down(worker_id, "pipe closed")
            return False
        metrics = self._metrics_for(worker_id)
        metrics["dispatch"].inc()
        metrics["bytes_out"].inc(x.nbytes)
        inflight = self._outstanding.get(worker_id, 0) + 1
        self._outstanding[worker_id] = inflight
        metrics["inflight"].set(inflight)
        return True

    def _emulate(self, worker_id: str, stats: dict, samples: int,
                 received: float) -> None:
        """Charge one FEATURES reply, received at ``received`` after
        ``host`` seconds of worker compute, to its device: one CPU and
        one uplink, FIFO stages shared by every worker on that
        ``device_id``.  All emulated time of the fleet is computed here::

            computed  = max(received − host, cpu_free) + c·s
            delivered = max(received, max(computed, link_free) + t·s)

        ``c`` is ``samples`` × ``flops_per_sample`` on the spec's device,
        ``t`` the encoded bytes on its link.  Stamps ``stats`` with them
        (``emulated_*_s``), with ``received_at`` and with each stage's
        end, length and wait on the ``perf_counter`` clock:
        ``computed_at`` / ``compute_s`` / ``compute_queued_s`` and
        ``delivered_at`` / ``transfer_s`` / ``queued_s``.
        """
        spec = self._specs[worker_id]
        scale = self._time_scale
        compute = spec.device.compute_seconds(spec.flops_per_sample * samples)
        transfer = spec.link.transfer_seconds(int(stats["bytes_out"]))
        device = spec.device.device_id
        cpu_free, link_free = self._device_free.get(device, (0.0, 0.0))
        start = received - stats["host_compute_s"]
        computing = max(start, cpu_free)
        computed = computing + compute * scale
        sending = max(computed, link_free)
        delivered = max(received, sending + transfer * scale)
        self._device_free[device] = (computed, delivered)
        stats.update(emulated_compute_s=compute, emulated_transfer_s=transfer,
                     received_at=received, computed_at=computed,
                     compute_s=compute * scale,
                     compute_queued_s=computing - start,
                     delivered_at=delivered, transfer_s=transfer * scale,
                     queued_s=sending - computed)

    def _decode_reply(self, worker_id: str, message: tuple) -> tuple:
        """Decode a ``features`` reply's payload back to a float32 array.

        Also the reply-side accounting: per-worker reply/in-flight/
        wire-bytes metrics; the reply's ``codec`` and ``decode_s`` stamped
        into its stats; and the emulated device, which stamps the reply's
        receive, compute and delivery instants (:meth:`_emulate`).
        """
        received = time.perf_counter()
        if wire.command(message) == wire.ERROR:
            self._note_reply(worker_id)
            return message
        if wire.command(message) != wire.FEATURES \
                or not isinstance(wire.payload(message), EncodedFeatures):
            return message
        encoded = wire.payload(message)
        self._note_reply(worker_id, nbytes=int(encoded.nbytes))
        stats = wire.stats(message)
        self._emulate(worker_id, stats, encoded.shape[0], received)
        try:
            t0 = time.perf_counter()
            features = get_codec(encoded.codec).decode(encoded)
            stats.update(codec=encoded.codec,
                         decode_s=time.perf_counter() - t0)
        except Exception as exc:       # corrupt payload: surface, don't die
            return wire.error_message(
                wire.request_id(message),
                f"feature decode failed: {type(exc).__name__}: {exc}")
        return wire.features_message(wire.request_id(message), features,
                                     stats)

    def poll(self, timeout: float = 0.0) -> list[tuple[str, tuple]]:
        """Collect every reply that arrives within ``timeout`` seconds.

        Waits on all live channels at once (``Transport.wait``) so one
        slow worker never serializes the gather.  A channel that hits EOF
        (worker crashed) or delivers a message :func:`wire.check` rejects
        marks that worker down instead of raising.
        Encoded feature payloads are decoded here, so callers always see
        plain float32 arrays.
        """
        if not self._handles:
            if timeout > 0:
                time.sleep(timeout)
            return []
        replies: list[tuple[str, tuple]] = []
        try:
            ready = self._transport.wait(list(self._handles.values()),
                                         timeout)
        except (OSError, ValueError):
            # A handle in our snapshot was closed mid-wait (e.g. a
            # rolling swap retiring a worker from another thread).  The
            # caller's gather loop re-polls immediately with a fresh
            # snapshot, so skipping this cycle loses nothing.
            return []
        for handle in ready:
            worker_id = handle.worker_id
            while True:                # drain everything already buffered
                try:
                    has_more = handle.poll(0)
                except (OSError, ValueError):
                    self.mark_down(worker_id, "connection closed")
                    break
                if not has_more:
                    break
                try:
                    message = wire.check(handle.recv())
                except (EOFError, OSError):
                    self.mark_down(worker_id, "process died (pipe EOF)")
                    break
                except wire.WireError as exc:
                    self.mark_down(worker_id, str(exc))
                    break
                replies.append((worker_id, self._decode_reply(worker_id,
                                                              message)))
        return replies

    # ------------------------------------------------------------------
    def gather(self, request_id: int, workers: Iterable[str],
               deadline: float | None,
               ) -> tuple[dict[str, np.ndarray], dict[str, dict],
                          dict[str, str]]:
        """Collect what ``workers`` owe request ``request_id``.

        Returns ``(features, stats, failed)``, ``failed`` mapping every
        worker without features to the reason.  The one reply policy: a
        FEATURES reply carrying ``request_id`` settles its worker once its
        emulated compute is done (``computed_at``, see :meth:`_emulate`),
        an ERROR reply at once (it does not mark the worker down); a
        pending worker with nothing received that is marked down, or dead
        with nothing buffered, is failed; at ``deadline`` (a
        ``time.perf_counter()`` instant, ``None`` = never) every worker
        still pending is marked down; any other reply is stale and dropped.

        It returns once the replies are settled, so the devices are free
        for the next request; each ``stats`` entry says when its features
        are *delivered* (``delivered_at``), which :func:`await_delivery`
        waits for, even if the worker is marked down in between.
        """
        started = time.perf_counter()
        end = math.inf if deadline is None else deadline
        pending = set(workers)
        features, stats, failed = {}, {}, {}
        while pending:
            # Wait no longer than the next emulated compute to finish.
            wake = min([end] + [stats[w]["computed_at"] for w in pending
                                if w in stats])
            step = min(_GATHER_STEP_S, max(0.0, wake - time.perf_counter()))
            for worker_id, message in self.poll(step):
                command = wire.command(message)
                if worker_id not in pending \
                        or command not in (wire.FEATURES, wire.ERROR) \
                        or wire.request_id(message) != request_id:
                    continue
                if command == wire.FEATURES:
                    features[worker_id] = wire.payload(message)
                    stats[worker_id] = wire.stats(message)
                else:
                    pending.discard(worker_id)
                    failed[worker_id] = str(wire.payload(message))
            now = time.perf_counter()
            pending -= {w for w in pending
                        if w in stats and stats[w]["computed_at"] <= now}
            for worker_id in sorted(pending):
                if worker_id not in stats and not self.is_alive(worker_id) \
                        and not self.has_buffered_reply(worker_id):
                    self.mark_down(worker_id, "process died mid-request")
                    failed[worker_id] = self._down[worker_id]
                    pending.discard(worker_id)
            if pending and now >= end:
                reason = f"no reply within {max(0.0, end - started):.3g}s"
                for worker_id in sorted(pending):
                    self.mark_down(worker_id, reason)
                    failed[worker_id] = reason
                    features.pop(worker_id, None)
                    stats.pop(worker_id, None)
                pending.clear()
        return features, stats, failed

    def infer_features(self, x: np.ndarray,
                       ) -> tuple[dict[str, np.ndarray], InferenceTiming]:
        """Scatter ``x`` to all workers; gather per-worker feature arrays,
        returning once every one has been delivered over its link.

        Raises :class:`WorkerFailure` for the first worker, in spec order,
        that is already down or fails the :meth:`gather` — dies
        mid-request, replies with an error, or does not answer within
        ``INFER_TIMEOUT_S`` seconds.
        """
        if not self._started:
            raise RuntimeError("cluster not started; use start() or a with-block")
        start = time.perf_counter()
        request_id = self.next_request_id()
        for worker_id in self.worker_ids:
            # A worker marked down has no handle: submit refuses it.
            if not self.submit(worker_id, request_id, x):
                raise WorkerFailure(worker_id,
                                    self._down.get(worker_id, "dispatch failed"))
        features, per_worker, failed = self.gather(
            request_id, self.worker_ids, start + INFER_TIMEOUT_S)
        for worker_id in self.worker_ids:
            if worker_id in failed:
                raise WorkerFailure(worker_id, failed[worker_id])
        await_delivery(per_worker.values())
        timing = InferenceTiming(wall_seconds=time.perf_counter() - start,
                                 per_worker=per_worker)
        return features, timing
