"""Regression tests for the hosting-state races the static analyzer
found (PR 8): ``start()`` now initializes hosting under
``_hosting_lock`` and readers always see a complete map."""

import threading

import numpy as np

import pytest

from repro.planning import plan_demo_system
from repro.serving import BatchingConfig, InferenceServer, ServerConfig


@pytest.fixture(scope="module")
def system():
    return plan_demo_system(num_workers=2, transport="inprocess")


def make_server(system):
    return InferenceServer(
        system.make_cluster(), system.fusion,
        ServerConfig(batching=BatchingConfig(max_batch_samples=8,
                                             max_wait_s=0.002)))


class TestHostingLockDiscipline:
    def test_restart_resets_hosting_atomically(self, system):
        server = make_server(system)
        with server:
            slots = list(server.hosting())
            # Fake a prior re-host so the restart has something to reset.
            with server._hosting_lock:
                server._hosting[slots[0]] = "stale-worker"
                server._replan_attempted.add("stale-worker")
        server.start()
        try:
            assert server.hosting() == {slot: slot for slot in slots}
            assert server._replan_attempted == set()
        finally:
            server.stop()

    def test_concurrent_hosting_reads_never_see_partial_state(self, system):
        """Hammer ``hosting()`` from a reader thread through several
        restarts; every snapshot must be a complete slot map."""
        server = make_server(system)
        server.start()
        slots = set(server.hosting())
        stop = threading.Event()
        bad: list[dict] = []

        def reader():
            while not stop.is_set():
                snapshot = server.hosting()
                if set(snapshot) != slots:
                    bad.append(snapshot)

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            for _ in range(5):
                server.stop()
                server.start()
            x = np.random.default_rng(0).normal(
                size=(2, *system.input_shape)).astype(np.float32)
            server.infer(x)
        finally:
            stop.set()
            thread.join(timeout=10)
            server.stop()
        assert not bad, f"partial hosting snapshots observed: {bad[:3]}"
