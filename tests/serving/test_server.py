"""End-to-end serving tests over a real 2-worker process fleet."""

import threading
import time

import numpy as np
import pytest

from repro.edge.runtime import EdgeCluster
from repro.obs import disable_tracing, enable_tracing, get_registry
from repro.planning import plan_demo_system
from repro.serving import (
    BatchingConfig,
    InferenceServer,
    RequestError,
    ServerConfig,
)


@pytest.fixture(scope="module")
def system():
    return plan_demo_system(num_workers=2)


def make_server(system, max_batch_samples=8, max_wait_s=0.002,
                worker_timeout_s=10.0, cluster=None):
    return InferenceServer(
        cluster or system.make_cluster(), system.fusion,
        ServerConfig(batching=BatchingConfig(
            max_batch_samples=max_batch_samples, max_wait_s=max_wait_s),
            worker_timeout_s=worker_timeout_s))


def inputs(system, count, seed=0):
    return np.random.default_rng(seed).normal(
        size=(count, *system.input_shape)).astype(np.float32)


def counter(name):
    return get_registry().counter(f"serving.{name}_total").value


class TestServing:
    def test_served_labels_match_local_fusion(self, system):
        x = inputs(system, 5)
        with make_server(system) as server:
            labels = server.infer(x)
        np.testing.assert_array_equal(labels, system.local_fused_labels(x))

    def test_single_image_request_is_promoted_to_batch(self, system):
        x = inputs(system, 1)[0]                  # (C, H, W)
        with make_server(system) as server:
            labels = server.infer(x)
        assert labels.shape == (1,)

    def test_concurrent_requests_all_resolve_correctly(self, system):
        with make_server(system) as server:
            chunks = [inputs(system, 1 + i % 3, seed=i) for i in range(12)]
            futures = [server.submit(c) for c in chunks]
            results = [f.result(30.0) for f in futures]
        for chunk, result in zip(chunks, results):
            np.testing.assert_array_equal(result,
                                          system.local_fused_labels(chunk))

    def test_requests_are_dynamically_batched(self, system):
        with make_server(system, max_batch_samples=16,
                         max_wait_s=0.05) as server:
            futures = [server.submit(inputs(system, 1, seed=i))
                       for i in range(6)]
            for future in futures:
                future.result(30.0)
            merged = [f.telemetry.batch_requests for f in futures]
        assert max(merged) > 1                     # at least one coalesced batch

    def test_telemetry_breakdown_is_populated(self, system):
        with make_server(system) as server:
            future = server.submit(inputs(system, 2))
            future.result(30.0)
        telemetry = future.telemetry
        assert telemetry.total_s > 0
        assert telemetry.queue_s >= 0
        assert telemetry.gather_s > 0
        assert telemetry.fusion_s > 0
        assert telemetry.total_s >= telemetry.service_s
        assert telemetry.batch_requests >= 1
        assert telemetry.num_samples == 2
        assert not telemetry.degraded and telemetry.error is None

    def test_stats_report_fields(self, system):
        with make_server(system) as server:
            for _ in range(4):
                server.infer(inputs(system, 1))
            report = server.stats()
        assert report.completed == 4 and report.failed == 0
        assert report.throughput_rps > 0
        assert report.latency_p50_s <= report.latency_p95_s \
            <= report.latency_p99_s
        assert report.worker_health == {w: "up"
                                        for w in system.plan.model_ids}


class TestDegradedServing:
    def test_killed_worker_degrades_to_zero_filled_fusion(self, system):
        w0, w1 = system.plan.model_ids
        x = inputs(system, 4)
        with make_server(system, worker_timeout_s=5.0) as server:
            healthy = server.infer(x)
            server.cluster.kill_worker(w0)
            deadline = time.perf_counter() + 10.0
            degraded = server.infer(x)
            while not server.stats().degraded_requests \
                    and time.perf_counter() < deadline:
                degraded = server.infer(x)         # kill may land mid-batch
            report = server.stats()
        np.testing.assert_array_equal(healthy, system.local_fused_labels(x))
        np.testing.assert_array_equal(
            degraded, system.local_fused_labels(x, zero_models=(0,)))
        assert report.worker_health[w0] != "up"
        assert report.worker_health[w1] == "up"
        assert report.degraded_requests > 0
        assert report.failed == 0                  # degraded, never dropped

    def test_mid_stream_kill_keeps_every_request_answered(self, system):
        w1 = system.plan.model_ids[1]
        names = ("requests", "failed", "degraded")
        before = {name: counter(name) for name in names}
        with make_server(system, worker_timeout_s=5.0) as server:
            threading.Timer(0.05, server.cluster.kill_worker,
                            (w1,)).start()
            futures = []
            for i in range(40):
                futures.append(server.submit(inputs(system, 1, seed=i)))
                time.sleep(0.005)
            labels = [f.result(30.0) for f in futures]
            report = server.stats()
        delta = {name: counter(name) - before[name] for name in names}
        assert len(labels) == 40
        assert report.failed == 0
        assert report.degraded_requests > 0
        assert any(f.telemetry.workers_down == (w1,) for f in futures)
        # Counters conserve: every admitted request is answered once.
        assert delta["requests"] == report.completed + report.failed
        assert delta["failed"] == report.failed
        assert delta["degraded"] == report.degraded_requests

    def test_all_workers_down_fails_loudly_not_silently(self, system):
        from repro.serving import RequestError

        x = inputs(system, 2)
        with make_server(system, worker_timeout_s=5.0) as server:
            server.infer(x)
            for worker in system.plan.model_ids:
                server.cluster.kill_worker(worker)
            # An all-zeros fusion answer would be a constant-label lie, so
            # a fully-dead fleet surfaces a typed error instead.
            with pytest.raises(RequestError, match="no live workers"):
                server.infer(x)
            report = server.stats()
        assert all(h != "up" for h in report.worker_health.values())
        assert report.failed >= 1


class TestCompletion:
    def test_an_answered_request_is_never_failed_afterwards(
            self, system, monkeypatch):
        """Regression: an exception after the labels were set (here: the
        ``batch.serve`` span) sent the whole batch through the serve
        loop's catch-all, which failed and re-recorded the answered
        request."""
        tracer = enable_tracing()
        emit = tracer.emit

        def emit_but_not_batch_serve(name, *args, **kwargs):
            if name == "batch.serve":
                raise RuntimeError("span sink broke")
            return emit(name, *args, **kwargs)

        monkeypatch.setattr(tracer, "emit", emit_but_not_batch_serve)
        failed_before = counter("failed")
        x = inputs(system, 3)
        try:
            with make_server(system) as server:
                future = server.submit(x)
                future.result(30.0)
            # stop() joined the serve loop: the batch is fully handled.
            labels = future.result(0)
        finally:
            disable_tracing()
        report = server.stats()
        np.testing.assert_array_equal(labels, system.local_fused_labels(x))
        assert [r.request_id for r in server.records()] == [future.request_id]
        assert future.telemetry.error is None
        assert report.completed == 1 and report.failed == 0
        assert counter("failed") == failed_before

    def test_catch_all_fails_an_unanswered_request_once(self, system):
        # A fusion MLP trained for three workers cannot fuse two: the
        # batch raises inside the serve loop, after the gather.
        fusion = plan_demo_system(num_workers=3).fusion
        failed_before = counter("failed")
        with InferenceServer(system.make_cluster(), fusion) as server:
            future = server.submit(inputs(system, 2))
            with pytest.raises(RequestError, match="serving failed"):
                future.result(30.0)
        assert len(server.records()) == 1
        assert server.stats().failed == 1
        assert counter("failed") == failed_before + 1


class TestBadRequests:
    def test_shape_mismatch_rejected_at_submit(self, system):
        from repro.serving import RequestError

        dropped_before = counter("dropped")
        with make_server(system) as server:
            good = server.submit(inputs(system, 2))
            with pytest.raises(RequestError, match="bad request shape"):
                server.submit(np.zeros((1, 3, 16, 16), dtype=np.float32))
            # The offender is counted as dropped; innocents still resolve.
            assert counter("dropped") == dropped_before + 1
            np.testing.assert_array_equal(
                good.result(30.0), system.local_fused_labels(good.x))

    def test_empty_request_rejected_at_submit(self, system):
        """A zero-sample request is refused at admission and counted as
        dropped, not sent to every worker to fail after a round trip."""
        from repro.serving import RequestError

        dropped_before = counter("dropped")
        with make_server(system) as server:
            empty = np.zeros((0,) + server._input_shape, dtype=np.float32)
            with pytest.raises(RequestError, match="non-empty"):
                server.submit(empty)
            assert counter("dropped") == dropped_before + 1
            report = server.stats()
        assert report.failed == 0

    def test_all_workers_erroring_fails_batch_but_not_fleet(self, system):
        from repro.serving import RequestError

        # Bypass submit-side validation to force an in-worker error: every
        # worker replies ("error", ...).  With no features at all the batch
        # must fail loudly (an all-zeros fusion would fabricate a constant
        # label), but the workers survive and keep serving valid requests.
        with make_server(system) as server:
            bad = np.zeros((2, 5, 8, 8), dtype=np.float32)
            good_shape, server._input_shape = server._input_shape, bad.shape[1:]
            with pytest.raises(RequestError, match="no worker produced"):
                server.submit(bad).result(30.0)
            server._input_shape = good_shape
            assert all(server.cluster.is_alive(w)
                       for w in system.plan.model_ids)
            x = inputs(system, 3)
            healthy = server.infer(x)
            report = server.stats()
        np.testing.assert_array_equal(healthy, system.local_fused_labels(x))
        assert report.worker_health == {w: "up"
                                        for w in system.plan.model_ids}
        assert report.failed == 1 and report.degraded_requests == 0


class TestLifecycle:
    def test_stop_is_idempotent_and_rejects_new_requests(self, system):
        server = make_server(system)
        server.start()
        server.infer(inputs(system, 1))
        server.stop()
        server.stop()                              # no-op
        with pytest.raises(RuntimeError):
            server.submit(inputs(system, 1))

    def test_stop_wakes_an_idle_serve_loop_directly(self, system):
        """Regression: the idle loop used to wake on a timer only to look
        at the closed flag, so stop() waited that interval out."""
        server = InferenceServer(system.make_cluster(), system.fusion,
                                 ServerConfig())
        server.start()
        try:
            server.infer(inputs(system, 1))
            time.sleep(0.05)                       # loop parked, queue empty
            start = time.perf_counter()
            server.stop(shutdown_cluster=False)
            assert time.perf_counter() - start < 0.5
        finally:
            server.cluster.shutdown()

    @pytest.mark.parametrize("timing", [None, (1e-3, 4e-3)],
                             ids=["plan-link", "time-scaled-link"])
    def test_stop_answers_every_dispatched_request_once(
            self, system, timed_spec, timing):
        """stop() right after a burst: on a time-scaled link one batch is
        then computing and one on the wire.  Every admitted request is
        answered exactly once, with its own labels, and the counters
        conserve."""
        cluster = None if timing is None else EdgeCluster(
            [timed_spec(spec, *timing)
             for spec in system.make_cluster().specs],
            time_scale=1.0, transport=system.transport)
        server = make_server(system, cluster=cluster)
        names = ("requests", "failed", "degraded")
        before = {name: counter(name) for name in names}
        chunks = [inputs(system, 1 + i % 3, seed=i) for i in range(24)]
        server.start()
        try:
            futures = [server.submit(chunk) for chunk in chunks]
            server.stop(shutdown_cluster=False)
            done = [future.done() for future in futures]
        finally:
            server.cluster.shutdown()
        delta = {name: counter(name) - before[name] for name in names}
        assert all(done)
        for chunk, future in zip(chunks, futures):
            np.testing.assert_array_equal(future.result(0),
                                          system.local_fused_labels(chunk))
        assert sorted(r.request_id for r in server.records()) == \
            sorted(f.request_id for f in futures)
        assert delta == {"requests": len(futures), "failed": 0,
                         "degraded": 0}

    def test_submit_before_start_raises(self, system):
        server = make_server(system)
        with pytest.raises(RuntimeError):
            server.submit(inputs(system, 1))

    def test_double_start_raises(self, system):
        server = make_server(system)
        server.start()
        try:
            with pytest.raises(RuntimeError):
                server.start()
        finally:
            server.stop()

    def test_restart_after_stop_serves_again(self, system):
        server = make_server(system)
        x = inputs(system, 2)
        server.start()
        server.infer(x)
        server.stop()
        server.start()                             # fresh queue + cluster
        try:
            labels = server.infer(x)
        finally:
            server.stop()
        np.testing.assert_array_equal(labels, system.local_fused_labels(x))

    def test_post_stop_stats_keep_worker_health(self, system):
        w0 = system.plan.model_ids[0]
        with make_server(system, worker_timeout_s=5.0) as server:
            server.infer(inputs(system, 1))
            server.cluster.kill_worker(w0)
            deadline = time.perf_counter() + 10.0
            while not server.stats().degraded_requests \
                    and time.perf_counter() < deadline:
                server.infer(inputs(system, 1))
        # Cluster shutdown cleared its down-map, but the report read after
        # the with-block must still show the failure.
        report = server.stats()
        assert report.worker_health[w0] != "up"
        assert report.degraded_requests > 0
