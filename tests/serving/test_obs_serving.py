"""End-to-end observability over the serving stack.

Covers the span tree of a served batch (the worker's spans, emitted by
the server from the intervals its reply reports, under the batch span
with the worker as their process), the report schema fields,
the serving/edge metrics series, the vectorized aggregation, and the
swap-attribution guarantee: a retired worker's series must not leak
into its replacement's.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.edge.device import DeviceModel
from repro.edge.network import LinkModel
from repro.edge.runtime import EdgeCluster, WorkerSpec
from repro.obs import (
    disable_tracing,
    enable_tracing,
    get_registry,
    get_tracer,
)
from repro.planning import plan_demo_system
from repro.serving import BatchingConfig, InferenceServer, ServerConfig
from repro.serving.telemetry import (
    BatchSummary,
    RequestTelemetry,
    SERVING_SCHEMA_VERSION,
    ServingReport,
    percentile,
)

WORKER_SPAN_NAMES = {"worker.request", "worker.forward", "codec.encode"}


@pytest.fixture(scope="module")
def system():
    return plan_demo_system(num_workers=2, transport="inprocess")


@pytest.fixture(autouse=True)
def _tracing_off():
    disable_tracing()
    yield
    disable_tracing()


def make_server(system, **batching):
    batching.setdefault("max_batch_samples", 8)
    batching.setdefault("max_wait_s", 0.002)
    return InferenceServer(system.make_cluster(), system.fusion,
                           ServerConfig(batching=BatchingConfig(**batching)))


def inputs(system, count, seed=0):
    return np.random.default_rng(seed).normal(
        size=(count, *system.input_shape)).astype(np.float32)


def counter_value(name, **labels):
    return get_registry().counter(name, **labels).value


class TestSpanTree:
    @pytest.mark.parametrize("transport", ["inprocess", "multiprocess", "tcp"])
    def test_request_tree_spans_both_processes(self, system, transport):
        system = dataclasses.replace(system, transport=transport)
        enable_tracing()
        with make_server(system) as server:
            for seed in range(3):
                server.infer(inputs(system, 2, seed=seed))
        spans = get_tracer().spans()
        by_name = {}
        for s in spans:
            by_name.setdefault(s.name, []).append(s)

        roots = by_name["request"]
        assert len(roots) == 3
        batch_spans = {s.trace_id: s for s in by_name["batch.serve"]}
        for root in roots:
            assert root.attrs["batch_id"] in batch_spans
            queue = [s for s in by_name["request.queue"]
                     if s.trace_id == root.trace_id]
            assert queue and queue[0].parent_id == root.span_id
            # Every request's batch has its whole tree, worker side too.
            assert {s.name for s in spans
                    if s.trace_id == root.attrs["batch_id"]} >= \
                {"batch.scatter", "batch.gather", "batch.fusion",
                 "worker.request", "codec.decode", "device.compute",
                 "link.transfer"}

        # Worker spans are emitted by the server from the intervals each
        # reply reports, under the batch span, with the worker as their
        # process and thread; its forward and encode split its request.
        assert set(by_name) >= WORKER_SPAN_NAMES | {"codec.decode"}
        for s in by_name["worker.request"]:
            assert s.process in system.plan.model_ids
            assert s.parent_id == batch_spans[s.trace_id].span_id
        for s in by_name["worker.forward"]:
            parent_ids = {w.span_id for w in by_name["worker.request"]}
            assert s.parent_id in parent_ids
        for request in by_name["worker.request"]:
            forward, encode = (
                next(s for s in by_name[name]
                     if s.parent_id == request.span_id)
                for name in ("worker.forward", "codec.encode"))
            assert forward.process == encode.process == request.process
            # One thread track per worker, named after it, not after the
            # server thread that emitted its spans.
            assert forward.thread == encode.thread == request.thread \
                == request.process
            assert forward.ts == request.ts
            assert encode.ts == pytest.approx(forward.ts + forward.duration_s)
            assert forward.duration_s + encode.duration_s == \
                pytest.approx(request.duration_s)
        for s in by_name["codec.decode"]:
            assert s.process == "server"
            assert s.parent_id == batch_spans[s.trace_id].span_id
        # One decode per worker reply, in every batch.
        for trace_id in batch_spans:
            assert sorted(s.attrs["worker"] for s in by_name["codec.decode"]
                          if s.trace_id == trace_id) == \
                sorted(s.process for s in by_name["worker.request"]
                       if s.trace_id == trace_id)
        # The scatter opens its batch and times one send per worker;
        # each worker starts on the batch after the scatter began, and the
        # gather ends after the scatter does.
        assert len(by_name["batch.scatter"]) == len(batch_spans)
        for s in by_name["batch.scatter"]:
            batch = batch_spans[s.trace_id]
            assert s.parent_id == batch.span_id and s.ts == batch.ts
            workers = [w for w in by_name["worker.request"]
                       if w.trace_id == s.trace_id]
            assert set(s.attrs["send_s"]) == {w.process for w in workers}
            assert 0 < sum(s.attrs["send_s"].values()) <= s.duration_s
            assert all(w.ts >= s.ts - 0.05 for w in workers)
            gather = next(g for g in by_name["batch.gather"]
                          if g.trace_id == s.trace_id)
            assert s.duration_s <= gather.duration_s
        # One server-side device.compute and link.transfer per worker
        # reply, under its batch.
        for name, attrs in (("device.compute", {"compute_s"}),
                            ("link.transfer", {"nbytes", "transfer_s"})):
            assert len(by_name[name]) == len(by_name["worker.request"])
            for s in by_name[name]:
                assert s.process == "server"
                assert s.parent_id == batch_spans[s.trace_id].span_id
                assert s.attrs["worker"] in system.plan.model_ids
                assert set(s.attrs) == {"worker", "queued_s"} | attrs

    def test_no_spans_when_disabled(self, system):
        enable_tracing()
        get_tracer().clear()
        disable_tracing()
        before = len(get_tracer())
        with make_server(system) as server:
            server.infer(inputs(system, 2))
        assert len(get_tracer()) == before

    def test_span_timing_nests_inside_batch(self, system):
        enable_tracing()
        with make_server(system) as server:
            server.infer(inputs(system, 2))
        spans = get_tracer().spans()
        batch = next(s for s in spans if s.name == "batch.serve")
        for child in spans:
            if child.name == "worker.request" \
                    and child.trace_id == batch.trace_id:
                assert child.ts >= batch.ts - 0.05
                assert child.ts + child.duration_s <= \
                    batch.ts + batch.duration_s + 0.05


class TestPipelinedLink:
    # Per image: 1 ms of emulated compute, 20 ms on the wire.
    TIMING = (1e-3, 20e-3)

    def test_next_batch_computes_while_the_previous_is_on_the_wire(
            self, system, timed_spec):
        specs = [timed_spec(spec, *self.TIMING)
                 for spec in system.make_cluster().specs]
        server = InferenceServer(
            EdgeCluster(specs, time_scale=1.0, transport="inprocess"),
            system.fusion,
            ServerConfig(batching=BatchingConfig(max_batch_samples=8)))
        enable_tracing()
        with server:
            # Queued at once: the second batch is dispatched as soon as
            # the first one's replies are received.
            futures = [server.submit(inputs(system, 4, seed=seed))
                       for seed in range(4)]
            for future in futures:
                future.result(30.0)
        batches = sorted({f.telemetry.dispatched_at: f for f in futures}
                         .items())[:2]
        batch_ids = [next(s.attrs["batch_id"] for s in get_tracer().spans()
                          if s.name == "request"
                          and s.trace_id == future.request_id)
                     for _, future in batches]
        samples = batches[0][1].telemetry.batch_samples
        spans = [s for s in get_tracer().spans() if s.trace_id in batch_ids]
        for worker in system.plan.model_ids:
            link = next(s for s in spans if s.name == "link.transfer"
                        and s.trace_id == batch_ids[0]
                        and s.attrs["worker"] == worker)
            forward = next(s for s in spans if s.name == "worker.forward"
                           and s.trace_id == batch_ids[1]
                           and s.process == worker)
            compute = next(s for s in spans if s.name == "device.compute"
                           and s.trace_id == batch_ids[0]
                           and s.attrs["worker"] == worker)
            wire_s = samples * self.TIMING[1]
            assert link.duration_s == pytest.approx(wire_s)
            assert link.attrs["transfer_s"] == link.duration_s
            assert link.attrs["nbytes"] == samples * 4 * specs[0].feature_dim
            assert forward.ts < link.ts + link.duration_s
            # The device computes, then sends: one after the other.
            assert compute.duration_s == pytest.approx(
                samples * self.TIMING[0])
            assert compute.ts + compute.duration_s <= link.ts + 1e-6


class TestReportSchema:
    def test_report_carries_version_start_and_metrics(self, system):
        with make_server(system) as server:
            server.infer(inputs(system, 2))
            report = server.stats(include_metrics=True)
        data = report.to_dict()
        assert data["schema_version"] == SERVING_SCHEMA_VERSION
        assert data["started_at"] is not None and data["started_at"] > 0
        assert any(key.startswith("serving.") for key in data["metrics"])
        json.dumps(data)               # the whole report must be JSON-safe

    def test_metrics_omitted_by_default(self, system):
        with make_server(system) as server:
            server.infer(inputs(system, 2))
            assert server.stats().metrics is None


class TestServingMetrics:
    def test_request_and_dispatch_counters_grow(self, system):
        w0 = system.plan.model_ids[0]
        before_requests = counter_value("serving.requests_total")
        before_w0 = counter_value("edge.dispatch_total", worker=w0)
        before_bytes = counter_value("wire.bytes_out_total", worker=w0)
        x = inputs(system, 2)
        with make_server(system) as server:
            for _ in range(3):
                server.infer(x)
        assert counter_value("serving.requests_total") == \
            before_requests + 3
        assert counter_value("edge.dispatch_total", worker=w0) == \
            before_w0 + 3
        # Each dispatch scatters the full input to every worker.
        assert counter_value("wire.bytes_out_total", worker=w0) == \
            before_bytes + 3 * x.nbytes

    def test_inflight_settles_to_zero(self, system):
        with make_server(system) as server:
            server.infer(inputs(system, 2))
        for worker in system.plan.model_ids:
            assert get_registry().gauge("edge.inflight",
                                        worker=worker).value == 0


class TestSwapAttribution:
    def replacement_spec(self, system, worker_id):
        return WorkerSpec.from_model(
            worker_id, system.models[0], "vit", flops_per_sample=1e6,
            device=DeviceModel(device_id=worker_id, macs_per_second=1e12),
            link=LinkModel(bandwidth_bps=1e9, overhead_seconds=0.0))

    def test_retired_series_frozen_replacement_starts_fresh(self, system):
        w0 = system.plan.model_ids[0]
        replacement = f"{w0}@obs"
        enable_tracing()
        with make_server(system) as server:
            server.infer(inputs(system, 2))
            at_swap_old = counter_value("edge.dispatch_total", worker=w0)
            at_swap_new = counter_value("edge.dispatch_total",
                                        worker=replacement)
            assert at_swap_old > 0
            new_id = server.swap_worker(
                w0, self.replacement_spec(system, replacement))
            assert new_id == replacement
            for seed in range(2):
                server.infer(inputs(system, 2, seed=seed))
            # The retired worker's series stop growing; the replacement
            # accrues its own — post-swap traffic is never attributed to
            # the old id (or vice versa).
            assert counter_value("edge.dispatch_total", worker=w0) == \
                at_swap_old
            assert counter_value("edge.dispatch_total",
                                 worker=replacement) == at_swap_new + 2
            assert get_registry().gauge("edge.inflight",
                                        worker=w0).value == 0
            assert counter_value("serving.swaps_total") >= 1

        # Post-swap worker spans carry the replacement's process name.
        post_swap = [s for s in get_tracer().spans()
                     if s.name == "worker.request"
                     and s.process == replacement]
        assert len(post_swap) == 2
        assert all(s.process != w0 or s.ts > 0 for s in post_swap)


class TestVectorizedAggregation:
    def make_records(self, n=37, seed=0):
        rng = np.random.default_rng(seed)
        records = []
        for i in range(n):
            enq = float(rng.uniform(0, 1))
            total = float(rng.uniform(0.001, 0.2))
            samples = int(rng.integers(1, 5))
            records.append(RequestTelemetry(
                request_id=i, num_samples=samples, enqueued_at=enq,
                error="boom" if i % 11 == 10 else None,
                batch=BatchSummary(
                    dispatched_at=enq + total / 3, completed_at=enq + total,
                    batch_requests=int(rng.integers(1, 8)),
                    batch_samples=samples,
                    gather_s=total / 4, fusion_s=total / 10,
                    bytes_out=int(rng.integers(100, 5000)),
                    bytes_in=int(rng.integers(100, 5000)),
                    degraded=bool(i % 5 == 0))))
        return records

    def test_matches_naive_reference(self):
        records = self.make_records()
        report = ServingReport.from_records(records, wall_seconds=2.0,
                                            worker_health={"w0": "up"})
        done = [r for r in records if r.error is None]
        totals = [r.total_s for r in done]
        assert report.completed == len(done)
        assert report.failed == len(records) - len(done)
        assert report.latency_p50_s == pytest.approx(percentile(totals, 50))
        assert report.latency_p95_s == pytest.approx(percentile(totals, 95))
        assert report.latency_p99_s == pytest.approx(percentile(totals, 99))
        assert report.latency_mean_s == pytest.approx(np.mean(totals))
        assert report.queue_mean_s == pytest.approx(
            np.mean([r.queue_s for r in done]))
        assert report.gather_mean_s == pytest.approx(
            np.mean([r.gather_s for r in done]))
        assert report.fusion_mean_s == pytest.approx(
            np.mean([r.fusion_s for r in done]))
        assert report.mean_batch_requests == pytest.approx(
            np.mean([r.batch_requests for r in done]))
        assert report.degraded_requests == \
            sum(1 for r in done if r.degraded)
        assert report.wire_bytes_out == sum(r.bytes_out for r in done)
        assert report.wire_bytes_in == sum(r.bytes_in for r in done)
        assert report.throughput_rps == pytest.approx(len(done) / 2.0)
        assert report.throughput_sps == pytest.approx(
            sum(r.num_samples for r in done) / 2.0)

    def test_empty_window(self):
        report = ServingReport.from_records([], wall_seconds=1.0)
        assert report.completed == 0 and report.failed == 0
        assert report.latency_p50_s is None
        assert report.mean_batch_requests is None
        assert report.wire_bytes_in == 0
        json.dumps(report.to_dict())

    def test_all_failed_window(self):
        records = [RequestTelemetry(request_id=i, num_samples=1,
                                    enqueued_at=0.0, error="dead",
                                    batch=BatchSummary(completed_at=0.1))
                   for i in range(4)]
        report = ServingReport.from_records(records, wall_seconds=1.0)
        assert report.completed == 0 and report.failed == 4
        assert report.latency_p50_s is None
