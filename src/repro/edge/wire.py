"""Typed constructors and accessors for the worker wire protocol.

The parent↔worker messages (:mod:`repro.edge.runtime`) are plain tuples
so every transport can ship them unchanged, but their *shape* is a
contract three modules depend on: the worker loop, the cluster's
dispatch/poll surface, and the serving gather loop.  This module is the
single place that shape lives — everything else builds messages through the
``*_message`` constructors and reads fields through the accessors, and
a tier-1 test over the source (``tests/test_source_invariants.py``)
flags raw tuple literals or ``message[0] == "..."`` string matching
anywhere else, so the protocol cannot drift one call site at a time.

Wire shapes (see :data:`ARITY` for the machine-readable form)::

    worker -> parent, before anything else (tcp only):
        (HELLO, worker_id)                 # names the dialled-back connection
    parent -> worker, start-up:
        (SPEC, spec)                       # the WorkerSpec, state empty
        (WEIGHTS, name, array)             # one state-dict entry, in order
        (WEIGHTS, None, None)              # end of the weights
    parent -> worker:
        (INFER, request_id, x)             # run the sub-model over x
        (STOP,)
    worker -> parent:
        (READY, worker_id)                 # once, after the last WEIGHTS
        (FAILED, worker_id, detail)        # startup failure, then exit
        (FEATURES, request_id, encoded, stats)
        (ERROR, request_id | None, detail)
        (STOPPED, worker_id)
"""

from __future__ import annotations

from typing import Any

# Command tags, parent -> worker.
SPEC = "spec"
WEIGHTS = "weights"
INFER = "infer"
STOP = "stop"
# Command tags, worker -> parent.
HELLO = "hello"
READY = "ready"
FAILED = "failed"
FEATURES = "features"
ERROR = "error"
STOPPED = "stopped"

COMMANDS = frozenset({SPEC, WEIGHTS, INFER, STOP,
                      HELLO, READY, FAILED, FEATURES, ERROR, STOPPED})

# command -> (min_len, max_len) including the command element itself.
ARITY: dict[str, tuple[int, int]] = {
    SPEC: (2, 2),
    WEIGHTS: (3, 3),
    INFER: (3, 3),
    STOP: (1, 1),
    HELLO: (2, 2),
    READY: (2, 2),
    FAILED: (3, 3),
    FEATURES: (4, 4),
    ERROR: (3, 3),
    STOPPED: (2, 2),
}


class WireError(ValueError):
    """A message does not match the wire protocol's declared shape."""


# ----------------------------------------------------------------------
# Constructors (the only sanctioned way to build a wire tuple).
def hello_message(worker_id: str) -> tuple:
    """A dialled-back connection's first message: whose it is."""
    return (HELLO, worker_id)


def spec_message(spec) -> tuple:
    """The worker's spec; the cluster sends it with an empty state and
    streams the weights after it."""
    return (SPEC, spec)


def weights_message(name: str, array) -> tuple:
    """One ``(name, array)`` entry of the worker's state dict."""
    return (WEIGHTS, name, array)


def weights_end_message() -> tuple:
    """End of the weights: the worker may finish booting."""
    return (WEIGHTS, None, None)


def infer_message(request_id: int, x) -> tuple:
    """An inference dispatch: run the sub-model over ``x``."""
    return (INFER, request_id, x)


def stop_message() -> tuple:
    return (STOP,)


def ready_message(worker_id: str) -> tuple:
    return (READY, worker_id)


def failed_message(worker_id: str, detail: str) -> tuple:
    """Typed startup failure (model build / codec resolution died)."""
    return (FAILED, worker_id, detail)


def features_message(request_id: int, encoded, stats: dict) -> tuple:
    return (FEATURES, request_id, encoded, stats)


def error_message(request_id: int | None, detail: str) -> tuple:
    """Per-request failure; ``request_id`` is ``None`` for unparseable
    commands that never carried one."""
    return (ERROR, request_id, detail)


def stopped_message(worker_id: str) -> tuple:
    return (STOPPED, worker_id)


# ----------------------------------------------------------------------
# Accessors (the only sanctioned way to take a wire tuple apart).
def command(message: tuple) -> Any:
    """The message's command tag (its first element)."""
    return message[0]


def worker_id(message: tuple) -> Any:
    """Worker id of a HELLO/READY/FAILED/STOPPED message."""
    return message[1]


def spec(message: tuple) -> Any:
    """The spec a SPEC message carries."""
    return message[1]


def weights_entry(message: tuple) -> tuple | None:
    """``(name, array)`` of a WEIGHTS message; ``None`` for the end marker."""
    return None if message[1] is None else (message[1], message[2])


def request_id(message: tuple) -> Any:
    """Request id of an INFER/FEATURES/ERROR message."""
    return message[1]


def payload(message: tuple) -> Any:
    """Third element: input array (INFER), encoded features (FEATURES),
    or detail string (ERROR/FAILED)."""
    return message[2]


def stats(message: tuple) -> Any:
    """The per-request stats dict of a FEATURES message."""
    return message[3]


def startup_detail(message: tuple) -> Any:
    """Human-readable detail of a FAILED startup reply.

    Tolerates malformed/legacy replies by returning the whole message —
    start-up error paths must degrade to *something* printable.
    """
    return message[2] if len(message) > 2 else message


def check(message: tuple) -> tuple:
    """Validate a message against :data:`ARITY`; returns it unchanged.

    Raises :class:`WireError` on an unknown command or arity drift.
    The ingress guard: the worker loop checks each command it receives
    and ``EdgeCluster.poll`` each reply, so a malformed message is a
    typed error there, never an ``IndexError`` in an accessor.
    """
    if not isinstance(message, tuple) or not message:
        raise WireError(f"not a wire message: {message!r}")
    tag = message[0]
    bounds = ARITY.get(tag)
    if bounds is None:
        raise WireError(f"unknown wire command {tag!r}; "
                        f"known: {sorted(COMMANDS)}")
    lo, hi = bounds
    if not lo <= len(message) <= hi:
        raise WireError(
            f"{tag!r} message has {len(message)} elements; "
            f"protocol allows {lo}" + ("" if lo == hi else f"..{hi}"))
    return message
