"""ServingReport aggregation tests, incl. the empty-window JSON bugfix."""

import gc
import json
import time
import tracemalloc

import numpy as np
import pytest

from repro.planning import plan_demo_system
from repro.serving import (
    InferenceServer,
    RequestTelemetry,
    ServingReport,
    percentile,
)
from repro.serving.telemetry import BatchSummary


def record(request_id: int, total_s: float = 0.01,
           error: str | None = None) -> RequestTelemetry:
    start = 100.0
    return RequestTelemetry(request_id=request_id, num_samples=1,
                            enqueued_at=start, error=error,
                            batch=BatchSummary(dispatched_at=start,
                                               completed_at=start + total_s))


class TestEmptyWindow:
    def test_empty_report_has_null_stats(self):
        report = ServingReport.from_records([], wall_seconds=1.0)
        assert report.completed == 0 and report.failed == 0
        assert report.latency_p50_s is None
        assert report.latency_p95_s is None
        assert report.latency_p99_s is None
        assert report.latency_mean_s is None
        assert report.queue_mean_s is None
        assert report.mean_batch_requests is None

    def test_empty_report_serializes_to_valid_json(self):
        report = ServingReport.from_records(
            [], wall_seconds=1.0, worker_health={"w0": "up"})
        # allow_nan=False is the strict-JSON mode that used to explode
        # (json.dumps emits the non-standard token NaN otherwise).
        text = json.dumps(report.to_dict(), allow_nan=False)
        parsed = json.loads(text)
        assert parsed["latency_p50_s"] is None
        assert parsed["completed"] == 0

    def test_all_failed_report_is_json_safe(self):
        records = [record(i, error="boom") for i in range(3)]
        report = ServingReport.from_records(records, wall_seconds=1.0)
        assert report.failed == 3 and report.completed == 0
        assert report.latency_p99_s is None
        json.dumps(report.to_dict(), allow_nan=False)

    def test_empty_row_renders(self):
        row = ServingReport.from_records([], wall_seconds=1.0).row()
        assert row["p50_ms"] is None and row["completed"] == 0

    def test_percentile_none_for_empty(self):
        assert percentile([], 50) is None
        assert percentile([1.0, 3.0], 50) == 2.0


class TestZeroCompletedServer:
    def test_server_with_no_requests_reports_cleanly(self):
        system = plan_demo_system(num_workers=1, transport="inprocess")
        server = InferenceServer(system.make_cluster(), system.fusion)
        with server:
            time.sleep(0.01)           # serve nothing
        report = server.stats()
        assert report.completed == 0
        json.dumps(report.to_dict(), allow_nan=False)


class TestPopulatedWindow:
    def test_stats_are_floats_when_requests_completed(self):
        records = [record(i, total_s=0.01 * (i + 1)) for i in range(10)]
        report = ServingReport.from_records(records, wall_seconds=1.0)
        assert report.completed == 10
        assert isinstance(report.latency_p50_s, float)
        assert np.isclose(report.latency_p50_s, 0.055)
        json.dumps(report.to_dict(), allow_nan=False)


class TestReportEqualsTheRecordsProperties:
    """``from_records`` reads each batch summary once into numpy columns;
    every field must still be what the per-request properties give."""

    @staticmethod
    def records() -> list[RequestTelemetry]:
        rng = np.random.default_rng(5)
        out = []
        for b in range(40):
            samples = rng.integers(1, 4, size=int(rng.integers(1, 6)))
            summary = BatchSummary(
                dispatched_at=0.0 if b % 9 == 4 else 10.0 + b,
                completed_at=10.5 + b + rng.random(),
                batch_requests=len(samples),
                batch_samples=int(samples.sum()),
                gather_s=rng.random() / 10, fusion_s=rng.random() / 100,
                bytes_out=int(rng.integers(0, 50_000)),
                bytes_in=int(rng.integers(0, 7_000)),
                degraded=b % 5 == 1, workers_down=("w1",) * (b % 5 == 1))
            for j, n in enumerate(samples):
                # Batches 4, 13, 22 and 31 were never dispatched, every
                # third batch has a failed request, every fifth degraded.
                error = "boom" if b % 3 == 2 and j == 0 else None
                if summary.dispatched_at == 0.0:
                    error = "server stopped"
                out.append(RequestTelemetry(
                    request_id=len(out), num_samples=int(n),
                    enqueued_at=9.9 + b - rng.random() / 10, error=error,
                    batch=summary))
        return out

    def test_every_field_equals_the_properties(self):
        records = self.records()
        done = [r for r in records if r.error is None]
        assert len(done) < len(records)
        assert any(r.degraded for r in done)
        assert any(r.queue_s == 0.0 for r in records)
        report = ServingReport.from_records(records, wall_seconds=2.0)

        totals = [r.total_s for r in done]
        assert report.completed == len(done)
        assert report.failed == len(records) - len(done)
        assert report.throughput_rps == len(done) / 2.0
        assert report.throughput_sps == sum(r.num_samples for r in done) / 2.0
        for q, value in ((50, report.latency_p50_s),
                         (95, report.latency_p95_s),
                         (99, report.latency_p99_s)):
            assert value == pytest.approx(percentile(totals, q), rel=1e-12)
        for value, column in (
                (report.latency_mean_s, totals),
                (report.queue_mean_s, [r.queue_s for r in done]),
                (report.gather_mean_s, [r.gather_s for r in done]),
                (report.fusion_mean_s, [r.fusion_s for r in done]),
                (report.mean_batch_requests,
                 [r.batch_requests for r in done])):
            assert value == pytest.approx(float(np.mean(column)), rel=1e-12)
        assert report.degraded_requests == sum(r.degraded for r in done)
        assert report.wire_bytes_out == sum(r.bytes_out for r in done)
        assert report.wire_bytes_in == sum(r.bytes_in for r in done)
        assert report.effective_bw_mbps == pytest.approx(
            sum(r.bytes_in for r in done) * 8 / 1e6 / 2.0, rel=1e-12)
        json.dumps(report.to_dict(), allow_nan=False)


class TestRetainedBytesPerRequest:
    """What a server still holds per request once its client dropped the
    future: the ring's ``RequestTelemetry`` and its share of one batch
    summary.  Rules that trade retention for speed are sized against it."""

    REQUESTS = 2000
    # Measured 213 B (CPython 3.11) with 16-request batches, against 409 B
    # when each request copied its batch's values; the margin covers
    # allocator and interpreter differences.
    BOUND_B = 300

    def test_retained_bytes_per_served_request(self):
        system = plan_demo_system(transport="inprocess")
        x = np.zeros((1, *system.input_shape), dtype=np.float32)
        with InferenceServer(system.make_cluster(), system.fusion) as server:
            # Grow every workspace to the 16-image batches measured below.
            for future in [server.submit(x) for _ in range(64)]:
                future.result(30.0)
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                futures = [server.submit(x) for _ in range(self.REQUESTS)]
                for future in futures:
                    future.result(60.0)
                del futures, future
                gc.collect()
                retained = (tracemalloc.get_traced_memory()[0] - before) \
                    / self.REQUESTS
            finally:
                tracemalloc.stop()
        print(f"server retains {retained:.0f} B per served request")
        assert retained <= self.BOUND_B
