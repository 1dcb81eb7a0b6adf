import threading
import time

import numpy as np
import pytest

import drivers
import fleets
from repro.serving import LoadgenConfig, ServedFuture, run_load
from repro.serving.telemetry import RequestTelemetry


def test_same_seed_same_schedule_and_rows_other_seed_differs():
    def draw(seed):
        rng = np.random.default_rng([seed, 1, 0])
        return (drivers.poisson_offsets(rng, 50.0, 100),
                drivers.request_rows(rng, 256, 100, 1))

    offsets, rows = draw(3)
    again_offsets, again_rows = draw(3)
    other_offsets, other_rows = draw(4)
    assert np.array_equal(offsets, again_offsets)
    assert np.array_equal(rows, again_rows)
    assert not np.array_equal(offsets, other_offsets)
    assert not np.array_equal(rows, other_rows)


def test_schedule_offers_the_same_load_on_every_seed():
    for seed in range(5):
        offsets = drivers.poisson_offsets(np.random.default_rng(seed),
                                          rate_rps=40.0, count=80)
        assert len(offsets) == 80
        assert np.all(np.diff(offsets) > 0)
        assert 0 < offsets[0] and offsets[-1] < 80 / 40.0


def test_same_seed_same_pool_other_seed_differs(tmp_path):
    one = fleets.prepare("link_bound", 5, tmp_path)
    same = fleets.prepare("link_bound", 5, tmp_path)
    other = fleets.prepare("link_bound", 6, tmp_path)
    assert np.array_equal(one.pool, same.pool)
    assert np.array_equal(one.reference, same.reference)
    assert not np.array_equal(one.pool, other.pool)


class StallingServer:
    """Replies at once, except that ``submit`` blocks for ``stall_s``
    the first time it is entered after ``stall_at``: a server whose
    stall holds up the generator itself."""

    def __init__(self, stall_at: float, stall_s: float):
        self.stall_at, self.stall_s = stall_at, stall_s
        self.stalled = False
        self.ids = iter(range(10 ** 6))
        self.started = time.perf_counter()

    def submit(self, x):
        if not self.stalled \
                and time.perf_counter() - self.started >= self.stall_at:
            self.stalled = True
            time.sleep(self.stall_s)
        now = time.perf_counter()
        telemetry = RequestTelemetry(next(self.ids), len(x), enqueued_at=now)
        telemetry.completed_at = time.perf_counter()
        future = ServedFuture(telemetry.request_id, x, telemetry)
        future.set_result(np.zeros(len(x), dtype=np.int64))
        return future

    # What run_load needs beyond submit().
    def records(self):
        return []

    def worker_health(self):
        return {}


def test_a_stall_raises_the_latency_of_requests_due_during_it():
    pool = np.zeros((4, 1), dtype=np.float32)
    offsets = np.arange(40) * 0.01                 # due every 10 ms
    rows = np.zeros((40, 1), dtype=np.int64)
    server = StallingServer(stall_at=0.1, stall_s=0.2)
    replies = drivers.open_loop(server.submit, offsets, rows, pool)
    assert all(r.status == drivers.OK for r in replies)
    latencies = np.array([r.latency_s for r in replies])
    # ~20 requests fell due while submit() was stuck; each waited for
    # what was left of the stall, and the due-time clock shows it.
    assert (latencies > 0.05).sum() >= 10
    assert latencies.max() > 0.15
    assert max(r.late_s for r in replies) > 0.15

    # The same stall under run_load's submit-time clock is invisible:
    # enqueued_at is read after the generator got through submit().
    server = StallingServer(stall_at=0.1, stall_s=0.2)
    result = run_load(
        server, (1,), LoadgenConfig(mode="trace", arrivals=tuple(offsets)),
        make_input=lambda rng, count: pool[:count])
    assert result.completed == 40
    assert max(result.latencies_s) < 0.05


def test_closed_loop_keeps_each_client_on_its_own_rows():
    seen = []
    lock = threading.Lock()

    def submit(x):
        with lock:
            seen.append(int(x[0, 0]))
        time.sleep(0.002)
        telemetry = RequestTelemetry(0, len(x), enqueued_at=0.0)
        telemetry.completed_at = time.perf_counter()
        future = ServedFuture(0, x, telemetry)
        future.set_result(np.zeros(len(x), dtype=np.int64))
        return future

    pool = np.arange(8, dtype=np.float32).reshape(8, 1)
    rows = np.arange(8).reshape(8, 1)
    replies, wall = drivers.closed_loop(submit, 2, 0.1, rows, pool)
    assert wall == pytest.approx(0.1, abs=0.05)
    assert len(replies) == len(seen) > 10
    assert set(seen) <= set(range(8))
    assert all(r.status == drivers.OK and r.latency_s > 0 for r in replies)
