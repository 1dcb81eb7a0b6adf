"""The serving layer end to end over every transport substrate.

One parametrized suite — if a transport can't serve, degrade, and
account wire bytes exactly like the others, it fails here.
"""

import dataclasses
import time

import numpy as np
import pytest

from repro.edge import runtime, wire
from repro.edge.device import DeviceModel
from repro.edge.runtime import EdgeCluster
from repro.edge.runtime import _worker_main as real_worker_main
from repro.planning import plan_demo_system
from repro.serving import (
    BatchingConfig,
    InferenceServer,
    LoadgenConfig,
    ServerConfig,
    run_load,
)

X = np.random.default_rng(3).normal(size=(6, 3, 8, 8)).astype(np.float32)


def make_server(transport, codec="raw32", num_workers=2):
    system = plan_demo_system(num_workers=num_workers, transport=transport,
                              codec=codec)
    server = InferenceServer(
        system.make_cluster(), system.fusion,
        ServerConfig(batching=BatchingConfig(max_batch_samples=16,
                                             max_wait_s=0.002),
                     worker_timeout_s=10.0))
    return system, server


@pytest.mark.parametrize("transport", ["inprocess", "multiprocess", "tcp"])
class TestServingAcrossTransports:
    def test_served_labels_match_local_reference(self, transport):
        system, server = make_server(transport)
        with server:
            labels = server.infer(X)
        assert (labels == system.local_fused_labels(X)).all()

    def test_closed_loop_run_completes_cleanly(self, transport):
        system, server = make_server(transport)
        with server:
            result = run_load(server, system.input_shape,
                              LoadgenConfig(num_requests=40, mode="closed",
                                            concurrency=4))
        assert result.completed == 40
        assert result.errors == 0 and result.dropped == 0
        assert result.report.wire_bytes_in > 0
        assert result.report.wire_bytes_out > 0

    def test_kill_degrades_instead_of_failing(self, transport):
        system, server = make_server(transport)
        with server:
            server.infer(X)            # warm: all workers answered once
            victim = system.plan.model_ids[0]
            server.cluster.kill_worker(victim)
            deadline = time.monotonic() + 5.0
            while server.cluster.is_alive(victim) \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
            degraded = None
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                future = server.submit(X)
                future.result(timeout=15.0)
                if future.telemetry.degraded:
                    degraded = future.telemetry
                    break
            assert degraded is not None, "kill never surfaced as degraded"
            assert victim in degraded.workers_down
        health = server.worker_health()
        assert sum(1 for status in health.values() if status != "up") == 1

    def test_hung_worker_degrades_within_the_gather_deadline(self, transport):
        # w0 is alive but silent: 6 x 5e5 MACs at 1e6 MACs/s is 3 s of
        # emulated compute, slept at time_scale=1 — far past the deadline.
        system = plan_demo_system(num_workers=2, transport=transport)
        w0, w1 = system.plan.model_ids
        specs = system.make_cluster().specs
        hung = dataclasses.replace(
            specs[0], flops_per_sample=5e5,
            device=DeviceModel(device_id=w0, macs_per_second=1e6))
        timeout = 0.5
        server = InferenceServer(
            EdgeCluster([hung, *specs[1:]], time_scale=1.0,
                        transport=transport),
            system.fusion, ServerConfig(worker_timeout_s=timeout))
        with server:
            start = time.perf_counter()
            future = server.submit(X)
            labels = future.result(timeout=15.0)
            elapsed = time.perf_counter() - start
            health = server.worker_health()
        assert elapsed < timeout + 0.5
        assert future.telemetry.degraded
        assert future.telemetry.workers_down == (w0,)
        np.testing.assert_array_equal(
            labels, system.local_fused_labels(X, zero_models=(0,)))
        assert health[w0].startswith("no reply within")
        assert health[w1] == "up"

    def test_silent_worker_degrades_within_the_gather_deadline(
            self, transport, monkeypatch):
        # The silent worker boots, answers READY and never replies to an
        # INFER: only the gather's deadline can end the wait for it.
        system = plan_demo_system(num_workers=2, transport=transport)
        specs = system.make_cluster().specs
        silent = dataclasses.replace(specs[0], worker_id=SILENT)
        monkeypatch.setattr(runtime, "_worker_main", silent_or_real_worker)
        timeout = 0.5
        server = InferenceServer(
            EdgeCluster([silent, *specs[1:]], transport=transport),
            system.fusion, ServerConfig(worker_timeout_s=timeout))
        with server:
            start = time.perf_counter()
            future = server.submit(X)
            labels = future.result(timeout=15.0)
            elapsed = time.perf_counter() - start
            health = server.worker_health()
        assert elapsed < timeout + 0.5
        assert future.telemetry.workers_down == (SILENT,)
        np.testing.assert_array_equal(
            labels, system.local_fused_labels(X, zero_models=(0,)))
        assert health[SILENT].startswith("no reply within")
        assert health[specs[1].worker_id] == "up"


# A stand-in for ``_worker_main`` (module level: process transports pickle
# it by name) that keeps the worker named SILENT alive and silent.
SILENT = "silent"


def silent_or_real_worker(spec, conn):
    if spec.worker_id != SILENT:
        return real_worker_main(spec, conn)
    for _ in runtime._received_weights(conn):
        pass
    conn.send(wire.ready_message(spec.worker_id))
    while wire.command(conn.recv()) != wire.STOP:
        pass                           # an INFER is taken and never answered
    conn.send(wire.stopped_message(spec.worker_id))


# A stand-in whose worker named MALFORMED answers every INFER with a
# FEATURES reply one element short (no stats).
MALFORMED = "malformed"


def malformed_or_real_worker(spec, conn):
    if spec.worker_id != MALFORMED:
        return real_worker_main(spec, conn)
    for _ in runtime._received_weights(conn):
        pass
    conn.send(wire.ready_message(spec.worker_id))
    try:
        while wire.command(message := conn.recv()) != wire.STOP:
            conn.send(wire.features_message(wire.request_id(message), None,
                                            {})[:3])
    except (EOFError, OSError):
        pass                           # marked down: the channel closed


@pytest.mark.parametrize("transport", ["inprocess", "multiprocess", "tcp"])
def test_malformed_reply_degrades_within_the_gather_deadline(transport,
                                                             monkeypatch):
    """The reply is rejected by ``wire.check`` where ``poll`` receives it:
    its worker is marked down with that text at once, and the request is
    served degraded instead of an ``IndexError`` reaching the gather."""
    system = plan_demo_system(num_workers=2, transport=transport)
    specs = system.make_cluster().specs
    malformed = dataclasses.replace(specs[0], worker_id=MALFORMED)
    monkeypatch.setattr(runtime, "_worker_main", malformed_or_real_worker)
    timeout = 2.0
    server = InferenceServer(
        EdgeCluster([malformed, *specs[1:]], transport=transport),
        system.fusion, ServerConfig(worker_timeout_s=timeout))
    with server:
        start = time.perf_counter()
        future = server.submit(X)
        labels = future.result(timeout=15.0)
        elapsed = time.perf_counter() - start
        health = server.worker_health()
    assert elapsed < timeout
    assert future.telemetry.workers_down == (MALFORMED,)
    np.testing.assert_array_equal(
        labels, system.local_fused_labels(X, zero_models=(0,)))
    assert health[MALFORMED] == ("'features' message has 3 elements; "
                                 "protocol allows 4")
    assert health[specs[1].worker_id] == "up"


class TestWireTelemetry:
    def test_request_bytes_match_codec_exactly(self):
        # 2 workers x 6 samples x 8 features: raw32 = 4 B/value.
        system, server = make_server("inprocess", codec="raw32")
        with server:
            future = server.submit(X)
            future.result(timeout=15.0)
        assert future.telemetry.bytes_in == 2 * 6 * 8 * 4
        assert future.telemetry.bytes_out == 2 * X.nbytes

    def test_q8_reports_fewer_wire_bytes_than_raw32(self):
        wire = {}
        for codec in ("raw32", "q8"):
            system, server = make_server("inprocess", codec=codec)
            with server:
                run_load(server, system.input_shape,
                         LoadgenConfig(num_requests=30, mode="closed",
                                       concurrency=4))
                report = server.stats()
            wire[codec] = report.wire_bytes_in
            assert report.effective_bw_mbps > 0
        assert wire["q8"] < wire["raw32"]

    def test_float64_request_does_not_inflate_bytes_out(self):
        system, server = make_server("inprocess")
        with server:
            f32 = server.submit(X)
            f32.result(timeout=15.0)
            f64 = server.submit(X.astype(np.float64))
            f64.result(timeout=15.0)
        assert f64.telemetry.bytes_out == f32.telemetry.bytes_out
