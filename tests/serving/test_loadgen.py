"""Load-generator tests: open/closed loops, drops, and the batching win."""

import time

import numpy as np
import pytest

from repro.planning import plan_demo_system
from repro.serving import (
    BatchingConfig,
    InferenceServer,
    LoadgenConfig,
    ServerConfig,
    percentile,
    run_load,
    sweep_offered_load,
)
from repro.serving.batcher import ServedFuture
from repro.serving.telemetry import RequestTelemetry


@pytest.fixture(scope="module")
def system():
    return plan_demo_system(num_workers=2)


def make_server(system, max_batch_samples=16, max_wait_s=0.002):
    return InferenceServer(
        system.make_cluster(), system.fusion,
        ServerConfig(batching=BatchingConfig(
            max_batch_samples=max_batch_samples, max_wait_s=max_wait_s)))


class TestPercentile:
    def test_interpolates(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0
        assert percentile(values, 50) == 2.5

    def test_empty_is_none(self):
        # None (JSON null), not NaN: NaN breaks machine-readable reports.
        assert percentile([], 50) is None


class TestClosedLoop:
    def test_all_requests_complete(self, system):
        with make_server(system) as server:
            result = run_load(server, system.input_shape,
                              LoadgenConfig(num_requests=40, mode="closed",
                                            concurrency=4))
        assert result.completed == 40
        assert result.errors == 0 and result.dropped == 0
        assert len(result.latencies_s) == 40
        assert 0 < result.p50_s <= result.p95_s <= result.p99_s
        assert result.achieved_rps > 0
        assert result.report.completed == 40

    def test_dynamic_batching_beats_batch_one(self, system):
        """Acceptance criterion: batching strictly increases throughput.

        The batched server runs the default load-driven batcher: a 5 ms
        ``max_wait_s`` window pinned it near 8 requests per 5 ms, which a
        fast host's batch-one server outran."""
        with make_server(system, max_batch_samples=16,
                         max_wait_s=0.0) as server:
            batched = run_load(server, system.input_shape,
                               LoadgenConfig(num_requests=150, mode="closed",
                                             concurrency=8))
        with make_server(system, max_batch_samples=1,
                         max_wait_s=0.0) as server:
            single = run_load(server, system.input_shape,
                              LoadgenConfig(num_requests=150, mode="closed",
                                            concurrency=8))
        assert batched.errors == 0 and single.errors == 0
        assert batched.achieved_rps > single.achieved_rps
        assert batched.report.mean_batch_requests > \
            single.report.mean_batch_requests

    def test_images_per_request(self, system):
        with make_server(system) as server:
            result = run_load(server, system.input_shape,
                              LoadgenConfig(num_requests=10, mode="closed",
                                            concurrency=2,
                                            images_per_request=3))
        assert result.completed == 10
        assert result.report.throughput_sps > result.report.throughput_rps


class TestOpenLoop:
    def test_poisson_arrivals_zero_drops(self, system):
        with make_server(system) as server:
            result = run_load(server, system.input_shape,
                              LoadgenConfig(num_requests=50, mode="open",
                                            offered_rps=400.0))
        assert result.completed == 50
        assert result.errors == 0 and result.dropped == 0
        assert result.offered_rps == 400.0

    def test_sweep_returns_one_result_per_rate(self, system):
        with make_server(system) as server:
            results = sweep_offered_load(server, system.input_shape,
                                         [100.0, 500.0], num_requests=25)
        assert [r.offered_rps for r in results] == [100.0, 500.0]
        for result in results:
            assert result.completed == 25 and result.errors == 0
            # Each rate's report covers only that run, not the whole sweep.
            assert result.report.completed == 25

    def test_report_covers_the_run_once_the_telemetry_ring_is_full(
            self, system):
        """The server keeps its last ``max_records`` records; a run's
        report is built from that run's own requests, so a full ring
        (whose length no longer grows) does not empty it."""
        server = InferenceServer(
            system.make_cluster(), system.fusion,
            ServerConfig(max_records=8, batching=BatchingConfig(
                max_batch_samples=16, max_wait_s=0.002)))
        with server:
            results = [run_load(server, system.input_shape,
                                LoadgenConfig(num_requests=20, mode="open",
                                              offered_rps=400.0, seed=seed))
                       for seed in (0, 1)]
            assert len(server.records()) == 8
        for result in results:
            assert result.completed == 20
            assert result.report.completed == 20
            assert result.report.latency_p50_s is not None


def test_unknown_mode_rejected(system):
    with make_server(system) as server:
        with pytest.raises(ValueError):
            run_load(server, system.input_shape, LoadgenConfig(mode="sine"))


class TestTraceMode:
    def test_replays_an_explicit_schedule(self, system):
        arrivals = tuple(i * 0.004 for i in range(25))
        with make_server(system) as server:
            result = run_load(server, system.input_shape,
                              LoadgenConfig(mode="trace", arrivals=arrivals))
        assert result.completed == 25
        assert result.errors == 0 and result.dropped == 0
        # Mean offered rate over the trace span, not config.offered_rps.
        assert result.offered_rps == pytest.approx(25 / arrivals[-1])

    def test_instant_trace_has_no_offered_rate(self, system):
        with make_server(system) as server:
            result = run_load(server, system.input_shape,
                              LoadgenConfig(mode="trace",
                                            arrivals=(0.0, 0.0, 0.0)))
        assert result.completed == 3
        assert result.offered_rps is None

    def test_trace_mode_requires_valid_arrivals(self, system):
        with make_server(system) as server:
            for bad in (None, (), (0.2, 0.1), (-1.0,), (float("nan"),)):
                with pytest.raises(ValueError):
                    run_load(server, system.input_shape,
                             LoadgenConfig(mode="trace", arrivals=bad))


class StallingServer:
    """Replies at once, except that the first ``submit`` entered after
    ``stall_at`` blocks for ``stall_s``: a stall that holds up the
    generator itself."""

    def __init__(self, stall_at: float, stall_s: float):
        self.stall_at, self.stall_s = stall_at, stall_s
        self.stalled = False
        self.started = time.perf_counter()

    def submit(self, x):
        if not self.stalled \
                and time.perf_counter() - self.started >= self.stall_at:
            self.stalled = True
            time.sleep(self.stall_s)
        now = time.perf_counter()
        telemetry = RequestTelemetry(0, len(x), enqueued_at=now)
        telemetry.completed_at = now
        future = ServedFuture(0, x, telemetry)
        future.set_result(np.zeros(len(x), dtype=np.int64))
        return future

    def records(self):
        return []

    def worker_health(self):
        return {}


class TestDueTimeClock:
    def test_a_stall_shows_in_the_requests_due_during_it(self):
        """Regression: latency was clocked from ``enqueued_at`` — read
        after the generator got through the stalled ``submit`` — so every
        request here reported ~0 s."""
        offsets = tuple(i * 0.01 for i in range(40))   # due every 10 ms
        result = run_load(
            StallingServer(stall_at=0.1, stall_s=0.2), (1,),
            LoadgenConfig(mode="trace", arrivals=offsets))
        assert result.completed == 40
        latencies = np.array(result.latencies_s)
        # ~20 requests fell due while submit() was stuck; each waited
        # for what was left of the stall.
        assert (latencies > 0.05).sum() >= 10
        assert latencies.max() > 0.15
        assert result.late_p95_s > 0.1
        assert result.row()["late_p95_s"] == pytest.approx(
            result.late_p95_s, abs=1e-6)

    def test_input_is_built_before_the_sleep(self):
        """A slow ``make_input`` eats the generator's idle time, not the
        request's punctuality: built after the sleep, the 10 ms input
        would make *every* request at least 10 ms late, so the median is
        the witness (the maximum is whatever the scheduler did)."""
        def slow_input(rng, count):
            time.sleep(0.01)
            return np.zeros((count, 1), dtype=np.float32)

        offsets = tuple(0.03 * (i + 1) for i in range(10))
        result = run_load(
            StallingServer(stall_at=float("inf"), stall_s=0.0), (1,),
            LoadgenConfig(mode="trace", arrivals=offsets),
            make_input=slow_input)
        assert result.completed == 10
        assert np.median(result.lateness_s) < 0.008

    def test_closed_loop_has_no_schedule_to_be_late_for(self, system):
        with make_server(system) as server:
            result = run_load(server, system.input_shape,
                              LoadgenConfig(num_requests=4, mode="closed",
                                            concurrency=2))
        assert result.late_p95_s is None
        assert result.row()["late_p95_s"] is None


class TestRowSerialization:
    def test_closed_loop_row_survives_allow_nan_false(self, system):
        """Regression: offered_rps was NaN for closed loops, which blew up
        json.dumps(..., allow_nan=False) in --json consumers."""
        import json

        with make_server(system) as server:
            result = run_load(server, system.input_shape,
                              LoadgenConfig(num_requests=8, mode="closed",
                                            concurrency=2))
        assert result.offered_rps is None
        row = result.row()
        assert row["offered_rps"] is None
        json.dumps(row, allow_nan=False)  # must not raise

    def test_row_still_guards_legacy_nan(self, system):
        import dataclasses
        import json

        with make_server(system) as server:
            result = run_load(server, system.input_shape,
                              LoadgenConfig(num_requests=4, mode="closed",
                                            concurrency=2))
        legacy = dataclasses.replace(result, offered_rps=float("nan"))
        assert legacy.row()["offered_rps"] is None
        json.dumps(legacy.row(), allow_nan=False)


class TestSweepSeeds:
    def test_each_rate_gets_an_independent_derived_seed(self, system,
                                                        monkeypatch):
        """Regression: the sweep reused the caller's seed verbatim at every
        rate, correlating all points of the latency curve."""
        from repro.serving import loadgen

        seen = []

        def fake_run_load(server, input_shape, config, make_input=None):
            seen.append(config)
            return "sentinel"

        monkeypatch.setattr(loadgen, "run_load", fake_run_load)
        results = loadgen.sweep_offered_load(None, (3, 8, 8),
                                             [50.0, 100.0, 200.0], seed=7)
        assert results == ["sentinel"] * 3
        seeds = [c.seed for c in seen]
        assert len(set(seeds)) == 3          # pairwise independent streams
        assert seeds != [7, 7, 7]

        seen.clear()
        loadgen.sweep_offered_load(None, (3, 8, 8), [50.0, 100.0, 200.0],
                                   seed=7)
        assert [c.seed for c in seen] == seeds   # deterministic contract
