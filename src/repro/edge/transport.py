"""Pluggable transports: how emulated edge workers are spawned and reached.

Every spawn/submit/poll/kill of :class:`~repro.edge.runtime.EdgeCluster`
goes through a :class:`Transport`, so one cluster runs over three substrates:

* ``multiprocess`` — one OS process per worker, spawn context, duplex
  pipes (the original behaviour, still the default: real process
  isolation, real serialization across the boundary);
* ``inprocess``   — one daemon *thread* per worker with in-memory
  mailboxes: no fork/spawn cost, so tests and huge simulated fleets are
  cheap, while the wire protocol stays identical;
* ``tcp``         — one OS process per worker connected back over a
  TCP socket (``multiprocessing.connection`` framing with an authkey
  handshake).  Loopback by default, but the address is real — the
  multi-host-capable substrate.

A transport hands back one :class:`WorkerHandle` per worker; the handle is
the only thing the cluster talks to (``send``/``recv``/``poll``/
``alive``/``kill``).  ``Transport.wait`` multiplexes many handles the way
``multiprocessing.connection.wait`` multiplexes pipes, so one slow worker
never serializes a gather.  A transport carries messages, never time:
emulated device time is the cluster's, the same on every substrate.

Boot is a handshake over the worker's own channel, not a process
argument.  :meth:`Transport.launch` starts every worker of a batch with a
constant-size payload (its end of the pipe, or the dial-back address,
authkey and worker id, plus the loop to run), so each
``Process.start()`` returns in milliseconds and the children import
numpy and ``repro`` side by side; it then connects them (on ``tcp`` a
dialled-back connection opens with ``HELLO worker_id`` and is matched to
its handle by that id, in whatever order the children arrive) and sends
each its ``SPEC``.  The child reads the spec off the channel and only
then enters ``worker_main(spec, conn)``.  Whatever else a
worker needs — its weights — the caller sends over the returned handle;
a transport never sees them.

A process child replays the parent's ``__main__`` only when the loop it
runs says so (:func:`needs_main`): the built-in loop never does.
"""

from __future__ import annotations

import collections
import io
import multiprocessing as mp
import multiprocessing.connection as mp_connection
import multiprocessing.context as mp_context
import multiprocessing.popen_spawn_posix as mp_popen
import multiprocessing.resource_tracker as mp_resource_tracker
import multiprocessing.spawn as mp_spawn
import multiprocessing.util as mp_util
import os
import socket
import struct
import threading
import time
from typing import Any, Callable, Iterable, Sequence

from . import wire

# The worker loop body lives in runtime.py (_worker_main); transports
# receive it as a callable so this module stays import-cycle-free.
WorkerMain = Callable[[Any, Any], None]


def _run_worker(worker_main: WorkerMain, conn) -> None:
    """Worker side of the boot handshake: take the spec off the channel,
    then run the loop.  A parent that went away first ends the worker."""
    try:
        spec = wire.spec(conn.recv())
    except (EOFError, OSError):
        return
    worker_main(spec, conn)


# ----------------------------------------------------------------------
# Starting a worker process.  ``spawn`` gives every child a fresh
# interpreter and then re-executes the parent's ``__main__`` in it, so
# that whatever the child unpickles can be found.  The built-in worker
# needs none of it: its loop and everything its spec names (the model
# kind and codec tables included) are defined inside this package, which
# the child imports on its own when it unpickles the loop.  Replaying a
# driver script or the CLI there only loads the planner, the store and
# the serving stack into a process that runs one forward loop.
_PACKAGE = __name__.partition(".")[0]


def needs_main(worker_main: WorkerMain) -> bool:
    """Whether the children of a launch running ``worker_main`` need the
    parent's ``__main__``: exactly when the loop is defined outside this
    package (a stand-in loop from a test or a script), which keeps stock
    ``spawn`` — how such a definition reaches a child at all."""
    module = getattr(worker_main, "__module__", None) or ""
    return module.partition(".")[0] != _PACKAGE


class _NoMainPopen(mp_popen.Popen):
    """``spawn``'s launcher, minus the instruction to replay ``__main__``.

    ``_launch`` is the stock one (CPython 3.11, ``popen_spawn_posix``)
    except for the two ``init_main_*`` keys dropped from the preparation
    data; everything else the child is told — ``sys.path`` as it is now,
    ``sys.argv``, the working directory, the authkey — is untouched.
    """

    def _launch(self, process_obj):
        tracker_fd = mp_resource_tracker.getfd()
        self._fds.append(tracker_fd)
        prep_data = mp_spawn.get_preparation_data(process_obj._name)
        prep_data.pop("init_main_from_name", None)
        prep_data.pop("init_main_from_path", None)
        fp = io.BytesIO()
        mp_context.set_spawning_popen(self)
        try:
            mp_context.reduction.dump(prep_data, fp)
            mp_context.reduction.dump(process_obj, fp)
        finally:
            mp_context.set_spawning_popen(None)

        parent_r = child_w = child_r = parent_w = None
        try:
            parent_r, child_w = os.pipe()
            child_r, parent_w = os.pipe()
            cmd = mp_spawn.get_command_line(tracker_fd=tracker_fd,
                                            pipe_handle=child_r)
            self._fds.extend([child_r, child_w])
            self.pid = mp_util.spawnv_passfds(mp_spawn.get_executable(),
                                              cmd, self._fds)
            self.sentinel = parent_r
            with open(parent_w, "wb", closefd=False) as f:
                f.write(fp.getbuffer())
        finally:
            self.finalizer = mp_util.Finalize(
                self, mp_util.close_fds,
                [fd for fd in (parent_r, parent_w) if fd is not None])
            for fd in (child_r, child_w):
                if fd is not None:
                    os.close(fd)


class _NoMainProcess(mp_context.SpawnProcess):
    """A ``spawn`` child (listed by ``multiprocessing.active_children()``
    like any other) that starts without the parent's ``__main__``."""

    @staticmethod
    def _Popen(process_obj):
        return _NoMainPopen(process_obj)


def reap(handles: Iterable["WorkerHandle"]) -> None:
    """Tear down workers that will not be used: close, kill, join."""
    handles = list(handles)
    for handle in handles:
        handle.close()
        if handle.alive():
            handle.kill()
    for handle in handles:
        handle.join(timeout=5)


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

    def launch(self, specs: Sequence,
               worker_main: WorkerMain) -> list[WorkerHandle]:
        """Start one worker per spec, all at once, and hand each its spec.

        Handles come back in the order of ``specs``, connected, with the
        ``SPEC`` message sent; nothing has been read from them.  A worker
        that is already gone is not an error here — whoever waits on its
        handle sees the EOF.  If the batch cannot be connected, every
        worker it started is torn down before ``RuntimeError`` is raised.
        """
        handles = self._start(specs, worker_main)
        for handle, spec in zip(handles, specs):
            try:
                handle.send(wire.spec_message(spec))
            except (BrokenPipeError, OSError):
                pass
        return handles

    def _start(self, specs: Sequence,
               worker_main: WorkerMain) -> list[WorkerHandle]:
        """Start the workers and return their connected handles."""
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
    def _process_class(self, worker_main: WorkerMain):
        """The ``Process`` class that starts this launch's children."""
        if needs_main(worker_main):
            return mp_context.SpawnProcess
        return _NoMainProcess

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

    def _start(self, specs: Sequence,
               worker_main: WorkerMain) -> list[WorkerHandle]:
        process_class = self._process_class(worker_main)
        handles: list[WorkerHandle] = []
        try:
            for spec in specs:
                parent, child = mp.Pipe()
                process = process_class(
                    target=_run_worker, args=(worker_main, child),
                    daemon=True)
                process.start()
                child.close()          # the worker's end: EOF when it dies
                handles.append(
                    _ConnectionHandle(spec.worker_id, process, parent))
        except BaseException:
            reap(handles)
            raise
        return handles


def _setsockopt(conn, level: int, option: int, value) -> None:
    """``setsockopt`` on a socket-backed ``Connection``."""
    sock = socket.socket(fileno=conn.fileno())
    try:
        sock.setsockopt(level, option, value)
    finally:
        sock.detach()                  # the Connection keeps owning the fd


def _set_tcp_nodelay(conn) -> None:
    """Disable Nagle's algorithm on a socket-backed ``Connection``."""
    _setsockopt(conn, socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


def _set_receive_timeout(conn, seconds: float) -> None:
    """Make a blocking read of ``conn`` fail with ``BlockingIOError``
    after ``seconds`` (0 = never).  ``SO_RCVTIMEO``, because ``Connection``
    reads the descriptor directly, out of ``socket.settimeout``'s reach."""
    _setsockopt(conn, socket.SOL_SOCKET, socket.SO_RCVTIMEO,
                struct.pack("ll", int(seconds), int(seconds % 1 * 1e6)))


def _tcp_worker_entry(worker_main: WorkerMain, address, authkey: bytes,
                      worker_id: str) -> None:
    """Child-process entry: dial back to the parent, say who this is,
    then boot like any other worker."""
    conn = mp_connection.Client(address, authkey=authkey)
    _set_tcp_nodelay(conn)
    conn.send(wire.hello_message(worker_id))
    _run_worker(worker_main, conn)


class TcpTransport(_ConnectionTransport):
    """One OS process per worker, connected back over a TCP socket.

    The parent listens on ``host:port`` (an ephemeral loopback port by
    default); every launched worker dials back and authenticates with the
    transport's random authkey (the ``multiprocessing.connection``
    challenge, both ways), then greets with ``HELLO worker_id``.  That
    greeting, not arrival order, decides which handle a connection
    belongs to: a batch is accepted in whatever order its children come
    up, and one launch at a time holds the listener, so a greeting with
    an id the batch does not contain, or one already connected, is a
    stranger — its connection is closed and the launch fails.  The same
    framing would carry to real multi-host deployments — only the launch
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
    # How often a launch waiting for dial-backs looks for a child that
    # died before it could dial.
    _LIVENESS_STEP_S = 0.2
    # Longest wait for any one message of a connection's opening exchange
    # (challenge, response, greeting).
    _GREETING_TIMEOUT_S = 5.0
    # Longest wait of a launch for all its children to dial back.
    _ACCEPT_TIMEOUT_S = 30.0

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self._host = host
        self._port = port
        self._authkey = os.urandom(16)
        self._listener: socket.socket | None = None
        self._launch_lock = threading.Lock()

    def _ensure_listener(self) -> socket.socket:
        if self._listener is None:
            self._listener = socket.create_server((self._host, self._port))
        return self._listener

    def _accept(self, listener: socket.socket, timeout: float | None = None):
        """One authenticated dial-back, or ``TimeoutError``.

        ``timeout`` (default: the transport's accept timeout) bounds the
        wait for a connection.  The connection comes back with a receive
        timeout still set, which bounds each read of the challenge and of
        the greeting the caller reads next: a peer that connects and says
        nothing cannot park the launch.  The challenge is
        ``multiprocessing.connection.Listener``'s own; the listening
        socket is ours only because ``Listener`` has no timeouts.
        """
        if timeout is None:
            timeout = self._ACCEPT_TIMEOUT_S
        listener.settimeout(max(timeout, 0.0))
        try:
            sock, _ = listener.accept()
        except (socket.timeout, BlockingIOError):
            raise TimeoutError(
                f"no TCP dial-back within {timeout}s") from None
        sock.setblocking(True)
        conn = mp_connection.Connection(sock.detach())
        try:
            _set_tcp_nodelay(conn)
            _set_receive_timeout(conn, self._GREETING_TIMEOUT_S)
            mp_connection.deliver_challenge(conn, self._authkey)
            mp_connection.answer_challenge(conn, self._authkey)
        except BaseException:
            conn.close()
            raise
        return conn

    def _start(self, specs: Sequence,
               worker_main: WorkerMain) -> list[WorkerHandle]:
        process_class = self._process_class(worker_main)
        with self._launch_lock:
            listener = self._ensure_listener()
            processes = {spec.worker_id: process_class(
                target=_tcp_worker_entry,
                kwargs=dict(worker_main=worker_main,
                            address=listener.getsockname(),
                            authkey=self._authkey,
                            worker_id=spec.worker_id),
                daemon=True) for spec in specs}
            if len(processes) != len(specs):
                raise ValueError("worker ids must be unique within a launch")
            handles: dict[str, WorkerHandle] = {}
            try:
                for process in processes.values():
                    process.start()
                for worker_id, conn in self._connect(listener, processes):
                    handles[worker_id] = _ConnectionHandle(
                        worker_id, processes[worker_id], conn)
            except BaseException:
                reap(handles.values())
                for worker_id, process in processes.items():
                    if worker_id not in handles and process.pid is not None:
                        process.terminate()
                        process.join(timeout=5)
                raise
        return [handles[spec.worker_id] for spec in specs]

    def _connect(self, listener: socket.socket, processes: dict):
        """Yield ``(worker_id, connection)`` as each launched child dials
        back and greets; ``RuntimeError`` if one cannot."""
        waiting = set(processes)
        deadline = time.monotonic() + self._ACCEPT_TIMEOUT_S
        while waiting:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError(
                    f"workers {sorted(waiting)} never connected back over "
                    f"TCP: no dial-back within {self._ACCEPT_TIMEOUT_S}s")
            try:
                conn = self._accept(listener,
                                    min(remaining, self._LIVENESS_STEP_S))
            except TimeoutError:
                dead = sorted(worker_id for worker_id in waiting
                              if not processes[worker_id].is_alive())
                if dead:
                    raise RuntimeError(
                        f"workers {dead} never connected back over TCP: "
                        f"exited before dialling") from None
                continue
            except (EOFError, OSError, mp.AuthenticationError):
                continue               # not one of ours: it failed the challenge
            try:
                message = conn.recv()
                _set_receive_timeout(conn, 0.0)
            except (EOFError, OSError):
                conn.close()
                continue               # authenticated, then silent or gone
            greeted = wire.worker_id(message) \
                if wire.command(message) == wire.HELLO else None
            if greeted not in waiting:
                conn.close()
                raise RuntimeError(
                    f"a TCP connection greeted as {greeted!r}; this launch "
                    f"still expects {sorted(waiting)} of {sorted(processes)}")
            waiting.discard(greeted)
            yield greeted, conn

    def close(self) -> None:
        listener, self._listener = self._listener, None
        if listener is not None:
            listener.close()


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

    The boot handshake runs over the mailboxes as it does over a pipe
    (objects cross by reference, so nothing is copied), and the codec
    encode/decode round trip still happens, so measured proportions
    stay meaningful; only process
    isolation (and its startup latency) is gone.  Ideal for tests and
    for simulating fleets far larger than the host's process budget.
    """

    name = "inprocess"

    def __init__(self):
        # One event for all workers: wait() parks here instead of
        # spin-polling every mailbox.
        self._event = threading.Event()

    def _start(self, specs: Sequence,
               worker_main: WorkerMain) -> list[WorkerHandle]:
        return [self._start_one(spec.worker_id, worker_main)
                for spec in specs]

    def _start_one(self, worker_id: str,
                   worker_main: WorkerMain) -> WorkerHandle:
        to_worker = _Mailbox()
        from_worker = _Mailbox(notify=self._event)
        endpoint = _InProcEndpoint(to_worker, from_worker)

        def run() -> None:
            try:
                _run_worker(worker_main, endpoint)
            except (BrokenPipeError, EOFError, OSError):
                pass                   # parent closed the channel mid-send

        thread = threading.Thread(target=run, daemon=True,
                                  name=f"edge-worker-{worker_id}")
        thread.start()
        return _InProcHandle(worker_id, thread, to_worker, from_worker)

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
