"""Serving leaves nothing behind: after start, kill, replan or a rolling
swap, stop and a restart, the process is back to the threads, child
processes and file descriptors it had before."""

import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

from repro.edge.runtime import WorkerSpec
from repro.planning import plan_demo_system

TRANSPORTS = ["inprocess", "multiprocess", "tcp"]


def resources():
    """Live threads, live child processes, open fds (by name/pid/number)."""
    return (sorted(t.name for t in threading.enumerate()),
            sorted(p.pid for p in multiprocessing.active_children()),
            sorted(os.listdir("/proc/self/fd")))


def settled(baseline, timeout=5.0):
    """The resources once they match ``baseline`` or ``timeout`` passed:
    a retired worker's thread or process may take a moment to exit."""
    deadline = time.perf_counter() + timeout
    while (now := resources()) != baseline \
            and time.perf_counter() < deadline:
        time.sleep(0.05)
    return now


def wait_for_rehost(server, slot, timeout=30.0):
    deadline = time.perf_counter() + timeout
    while server.hosting()[slot] == slot:
        assert time.perf_counter() < deadline, f"{slot} never re-hosted"
        time.sleep(0.05)


def warmed_server(transport):
    """A demo fleet's server after one warm-up cycle, an input batch and
    the resources in use once the server stopped."""
    system = plan_demo_system(num_workers=2, seed=0, transport=transport)
    x = np.random.default_rng(0).normal(
        size=(2, *system.input_shape)).astype(np.float32)
    server = system.make_server()
    # multiprocessing opens its resource tracker's fd once per process,
    # on the first spawn.
    with server:
        server.infer(x)
    return system, x, server, resources()


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_start_kill_replan_restart_leaves_nothing_behind(transport):
    system, x, server, baseline = warmed_server(transport)
    victim = system.plan.model_ids[0]
    server.start()
    server.infer(x)
    server.cluster.kill_worker(victim)
    server.infer(x)                    # degraded; the replan follows
    wait_for_rehost(server, victim)
    assert server.stats().failed == 0
    server.infer(x)
    server.stop()
    server.start()
    server.infer(x)
    server.stop()

    assert settled(baseline) == baseline


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_rolling_swap_and_restart_leave_nothing_behind(transport):
    system, x, server, baseline = warmed_server(transport)
    slot = system.plan.model_ids[0]
    server.start()
    server.infer(x)
    server.swap_worker(slot, WorkerSpec.from_plan(
        system.plan, slot, system.models[0], worker_id=f"{slot}@swap"))
    server.infer(x)                    # the retired worker has exited
    server.stop()
    server.start()
    server.infer(x)
    server.stop()

    assert settled(baseline) == baseline
