"""Pluggable transports: how emulated edge workers are spawned and reached.

:class:`~repro.edge.runtime.EdgeCluster` used to hard-code
``multiprocessing.Pipe``; every spawn/submit/poll/kill now goes through a
:class:`Transport`, so the same cluster code runs over three substrates:

* ``multiprocess`` — one OS process per worker, spawn context, duplex
  pipes (the original behaviour, still the default: real process
  isolation, real serialization across the boundary);
* ``inprocess``   — one daemon *thread* per worker with in-memory
  mailboxes: no fork/spawn cost, so tests and huge simulated fleets are
  cheap, while the wire protocol and emulated link sleeps stay identical;
* ``tcp``         — one OS process per worker connected back over a
  TCP socket (``multiprocessing.connection`` framing with an authkey
  handshake).  Loopback by default, but the address is real — the
  multi-host-capable substrate.

A transport hands back one :class:`WorkerHandle` per spawn; the handle is
the only thing the cluster talks to (``send``/``recv``/``poll``/
``alive``/``kill``).  ``Transport.wait`` multiplexes many handles the way
``multiprocessing.connection.wait`` multiplexes pipes, so one slow worker
never serializes a gather.
"""

from __future__ import annotations

import collections
import multiprocessing as mp
import multiprocessing.connection as mp_connection
import os
import socket
import threading
import time
from typing import Any, Callable, Iterable

# The worker loop body lives in runtime.py (_worker_main); transports
# receive it as a callable so this module stays import-cycle-free.
WorkerMain = Callable[[Any, Any, float], None]


class WorkerHandle:
    """Parent-side endpoint of one spawned worker."""

    def __init__(self, worker_id: str):
        self.worker_id = worker_id

    def send(self, message: tuple) -> None:
        raise NotImplementedError

    def recv(self) -> tuple:
        raise NotImplementedError

    def poll(self, timeout: float = 0.0) -> bool:
        raise NotImplementedError

    def alive(self) -> bool:
        raise NotImplementedError

    def kill(self) -> None:
        """Hard-kill the worker (crash injection); never raises."""
        raise NotImplementedError

    def join(self, timeout: float | None = None) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Close the parent-side channel; never raises."""
        raise NotImplementedError


class Transport:
    """Spawns workers and multiplexes their handles."""

    name = "abstract"

    def spawn(self, spec, time_scale: float,
              worker_main: WorkerMain) -> WorkerHandle:
        raise NotImplementedError

    def wait(self, handles: Iterable[WorkerHandle],
             timeout: float | None) -> list[WorkerHandle]:
        """Handles with a message (or EOF) ready within ``timeout``."""
        raise NotImplementedError

    def close(self) -> None:
        """Release transport-wide resources (e.g. a TCP listener)."""


# ----------------------------------------------------------------------
# Connection-backed transports (multiprocess pipes, TCP sockets): both
# wrap a multiprocessing.connection.Connection plus a child process, and
# both multiplex through multiprocessing.connection.wait.
class _ConnectionHandle(WorkerHandle):
    def __init__(self, worker_id: str, process, conn):
        super().__init__(worker_id)
        self.process = process
        self.conn = conn

    def send(self, message: tuple) -> None:
        self.conn.send(message)

    def recv(self) -> tuple:
        return self.conn.recv()

    def poll(self, timeout: float = 0.0) -> bool:
        return self.conn.poll(timeout)

    def alive(self) -> bool:
        return self.process.is_alive()

    def kill(self) -> None:
        self.process.terminate()
        self.process.join(timeout=5)

    def join(self, timeout: float | None = None) -> None:
        self.process.join(timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=5)

    def close(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass


class _ConnectionTransport(Transport):
    def wait(self, handles: Iterable[WorkerHandle],
             timeout: float | None) -> list[WorkerHandle]:
        by_conn = {h.conn: h for h in handles}
        if not by_conn:
            return []
        ready = mp_connection.wait(list(by_conn), timeout)
        return [by_conn[conn] for conn in ready]


class MultiprocessTransport(_ConnectionTransport):
    """One spawned OS process per worker, duplex pipe to the parent."""

    name = "multiprocess"

    def __init__(self):
        self._context = mp.get_context("spawn")

    def spawn(self, spec, time_scale: float,
              worker_main: WorkerMain) -> WorkerHandle:
        parent, child = self._context.Pipe()
        process = self._context.Process(
            target=worker_main, args=(spec, child, time_scale), daemon=True)
        process.start()
        return _ConnectionHandle(spec.worker_id, process, parent)


def _set_tcp_nodelay(conn) -> None:
    """Disable Nagle's algorithm on a socket-backed ``Connection``."""
    sock = socket.socket(fileno=conn.fileno())
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    finally:
        sock.detach()                  # the Connection keeps owning the fd


def _tcp_worker_entry(worker_main: WorkerMain, spec, address,
                      authkey: bytes, time_scale: float) -> None:
    """Child-process entry: dial back to the parent, then run the loop."""
    conn = mp_connection.Client(address, authkey=authkey)
    _set_tcp_nodelay(conn)
    worker_main(spec, conn, time_scale)


class TcpTransport(_ConnectionTransport):
    """One OS process per worker, connected back over a TCP socket.

    The parent listens on ``host:port`` (an ephemeral loopback port by
    default); every spawned worker dials back and authenticates with the
    transport's random authkey.  Spawns are sequential, so the accepted
    connection always belongs to the worker just started.  The same
    framing would carry to real multi-host deployments — only the spawn
    step (here ``multiprocessing``) is machine-local.

    Both ends of every connection set ``TCP_NODELAY``.
    ``multiprocessing.connection`` writes any message over 16 KiB as two
    ``send()`` calls (4-byte length header, then body); under Nagle's
    algorithm the body is held until the header is acknowledged, and the
    peer — with nothing to send back yet — sits on that ACK for its
    delayed-ACK timer (~40 ms on Linux).  Left on, Nagle costs every
    >16 KiB input or feature reply (6+ rows at ViT-Base width) ~40 ms per
    hop on an otherwise idle link.  Messages are whole requests or
    replies, never a trickle of small writes, so there is nothing for it
    to coalesce.
    """

    name = "tcp"

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 accept_timeout_s: float = 30.0):
        self._context = mp.get_context("spawn")
        self._host = host
        self._port = port
        self._accept_timeout_s = accept_timeout_s
        self._authkey = os.urandom(16)
        self._listener: mp_connection.Listener | None = None

    @property
    def address(self) -> tuple[str, int] | None:
        return None if self._listener is None else self._listener.address

    def _ensure_listener(self) -> mp_connection.Listener:
        if self._listener is None:
            self._listener = mp_connection.Listener(
                (self._host, self._port), family="AF_INET",
                authkey=self._authkey)
        return self._listener

    def _accept(self, listener: mp_connection.Listener):
        """``listener.accept()`` bounded by the accept timeout.

        ``Listener`` has no public timeout, so the accept runs in a
        watchdog thread; on expiry a dummy self-connection completes the
        pending accept (closing the socket would not wake a thread
        already blocked in ``accept()``), its connection is discarded,
        and ``TimeoutError`` is raised.
        """
        result: dict = {}

        def do_accept() -> None:
            try:
                result["conn"] = listener.accept()
            except Exception as exc:   # surfaced to the spawning thread
                result["error"] = exc

        thread = threading.Thread(target=do_accept, daemon=True)
        thread.start()
        thread.join(self._accept_timeout_s)
        if thread.is_alive():
            try:
                dummy = mp_connection.Client(listener.address,
                                             authkey=self._authkey)
                dummy.close()
            except OSError:
                self.close()           # last resort: tear the listener down
            thread.join(timeout=5)
            conn = result.pop("conn", None)
            if conn is not None:       # the dummy (or a late worker) landed
                conn.close()
            raise TimeoutError(
                f"no TCP dial-back within {self._accept_timeout_s}s")
        if "error" in result:
            raise result["error"]
        return result["conn"]

    def spawn(self, spec, time_scale: float,
              worker_main: WorkerMain) -> WorkerHandle:
        listener = self._ensure_listener()
        process = self._context.Process(
            target=_tcp_worker_entry,
            args=(worker_main, spec, listener.address, self._authkey,
                  time_scale),
            daemon=True)
        process.start()
        try:
            conn = self._accept(listener)
        except (TimeoutError, socket.timeout, OSError,
                mp.AuthenticationError) as exc:
            process.terminate()
            process.join(timeout=5)
            raise RuntimeError(
                f"worker {spec.worker_id} never connected back over TCP: "
                f"{exc}") from exc
        _set_tcp_nodelay(conn)
        return _ConnectionHandle(spec.worker_id, process, conn)

    def close(self) -> None:
        if self._listener is not None:
            try:
                self._listener.close()
            finally:
                self._listener = None


# ----------------------------------------------------------------------
# In-process transport: worker threads and in-memory mailboxes.
class _Mailbox:
    """A closable one-way message queue with non-consuming poll."""

    def __init__(self, notify: threading.Event | None = None):
        self._items: collections.deque = collections.deque()
        self._cond = threading.Condition()
        self._closed = False
        self._notify = notify

    def put(self, item) -> None:
        with self._cond:
            if self._closed:
                raise BrokenPipeError("mailbox closed")
            self._items.append(item)
            self._cond.notify_all()
        if self._notify is not None:
            self._notify.set()

    def get(self) -> Any:
        """Blocking receive; EOFError once closed and drained (pipe EOF)."""
        with self._cond:
            self._cond.wait_for(lambda: self._items or self._closed)
            if self._items:
                return self._items.popleft()
            raise EOFError("mailbox closed")

    def poll(self, timeout: float = 0.0) -> bool:
        with self._cond:
            if timeout <= 0:
                return bool(self._items)
            # Also wake on close: a drained, closed mailbox can never
            # become ready, so waiting out the full timeout (e.g. the
            # shutdown drain's 5 s deadline) would just stall the caller.
            self._cond.wait_for(lambda: self._items or self._closed,
                                timeout)
            return bool(self._items)

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()


class _InProcEndpoint:
    """Connection-alike handed to the worker loop (send/recv only)."""

    def __init__(self, inbox: _Mailbox, outbox: _Mailbox):
        self._inbox = inbox
        self._outbox = outbox

    def recv(self):
        return self._inbox.get()

    def send(self, message) -> None:
        self._outbox.put(message)


class _InProcHandle(WorkerHandle):
    def __init__(self, worker_id: str, thread: threading.Thread,
                 to_worker: _Mailbox, from_worker: _Mailbox):
        super().__init__(worker_id)
        self._thread = thread
        self._to_worker = to_worker
        self._from_worker = from_worker
        self._killed = False

    def send(self, message: tuple) -> None:
        self._to_worker.put(message)   # BrokenPipeError once killed/closed

    def recv(self) -> tuple:
        return self._from_worker.get()

    def poll(self, timeout: float = 0.0) -> bool:
        return self._from_worker.poll(timeout)

    def alive(self) -> bool:
        return self._thread.is_alive() and not self._killed

    def kill(self) -> None:
        # Threads cannot be terminated; closing both mailboxes makes the
        # worker's next recv raise EOFError (so its loop exits) while
        # replies already buffered stay readable — the same observable
        # state as a killed process with bytes left in the pipe.
        self._killed = True
        self._to_worker.close()
        self._from_worker.close()

    def join(self, timeout: float | None = None) -> None:
        self._thread.join(timeout)
        if self._thread.is_alive():
            self.kill()

    def close(self) -> None:
        self._to_worker.close()
        self._from_worker.close()


class InProcessTransport(Transport):
    """Worker threads instead of processes: no spawn cost, same protocol.

    The emulated-link sleeps and the codec encode/decode round trip still
    happen, so measured proportions stay meaningful; only process
    isolation (and its startup latency) is gone.  Ideal for tests and
    for simulating fleets far larger than the host's process budget.
    """

    name = "inprocess"

    def __init__(self):
        # One event for all workers: wait() parks here instead of
        # spin-polling every mailbox.
        self._event = threading.Event()

    def spawn(self, spec, time_scale: float,
              worker_main: WorkerMain) -> WorkerHandle:
        to_worker = _Mailbox()
        from_worker = _Mailbox(notify=self._event)
        endpoint = _InProcEndpoint(to_worker, from_worker)

        def run() -> None:
            try:
                worker_main(spec, endpoint, time_scale)
            except (BrokenPipeError, EOFError, OSError):
                pass                   # parent closed the channel mid-send

        thread = threading.Thread(target=run, daemon=True,
                                  name=f"edge-worker-{spec.worker_id}")
        thread.start()
        return _InProcHandle(spec.worker_id, thread, to_worker, from_worker)

    def wait(self, handles: Iterable[WorkerHandle],
             timeout: float | None) -> list[WorkerHandle]:
        # Readiness means "a message is buffered": like a parent-held
        # multiprocessing pipe, a dead worker with an empty mailbox is
        # *not* ready — deaths are noticed by liveness checks, not here.
        handles = list(handles)
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            ready = [h for h in handles if h.poll(0)]
            if ready:
                return ready
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return []
            self._event.clear()
            # Re-check after clearing so a put() between the poll above
            # and the clear cannot be missed.
            ready = [h for h in handles if h.poll(0)]
            if ready:
                return ready
            step = 0.05 if deadline is None else min(
                0.05, max(0.0, deadline - time.monotonic()))
            if step <= 0:
                return []
            self._event.wait(step)


# ----------------------------------------------------------------------
TRANSPORTS: dict[str, type[Transport]] = {
    MultiprocessTransport.name: MultiprocessTransport,
    InProcessTransport.name: InProcessTransport,
    TcpTransport.name: TcpTransport,
}


def get_transport(transport: str | Transport | None) -> Transport:
    """Resolve a transport name (or pass an instance through)."""
    if transport is None:
        return MultiprocessTransport()
    if isinstance(transport, Transport):
        return transport
    try:
        return TRANSPORTS[transport]()
    except KeyError:
        raise KeyError(f"unknown transport {transport!r}; registered "
                       f"transports: {sorted(TRANSPORTS)}") from None
