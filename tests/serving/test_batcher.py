"""Dynamic batcher unit tests (no processes, no server thread)."""

import threading
import time

import numpy as np
import pytest

from repro.core.inference import split_batch
from repro.serving import batcher as batcher_module
from repro.serving.batcher import (
    LINGER_S,
    BatchingConfig,
    DynamicBatcher,
    QueueFullError,
    RequestError,
    ServedFuture,
)
from repro.serving.telemetry import RequestTelemetry


def make_future(request_id, samples=1):
    x = np.zeros((samples, 3, 8, 8), dtype=np.float32)
    telemetry = RequestTelemetry(request_id=request_id, num_samples=samples,
                                 enqueued_at=time.perf_counter())
    return ServedFuture(request_id, x, telemetry)


class TestBatchFormation:
    def test_coalesces_pending_requests_in_fifo_order(self):
        batcher = DynamicBatcher(BatchingConfig(max_batch_samples=8,
                                                max_wait_s=0.01))
        for i in range(3):
            batcher.submit(make_future(i))
        batch = batcher.next_batch()
        assert [f.request_id for f in batch.requests] == [0, 1, 2]
        assert batch.num_samples == 3
        assert batch.concatenated().shape[0] == 3

    def test_max_batch_samples_splits_backlog(self):
        batcher = DynamicBatcher(BatchingConfig(max_batch_samples=2,
                                                max_wait_s=0.01))
        for i in range(3):
            batcher.submit(make_future(i))
        first = batcher.next_batch()
        second = batcher.next_batch()
        assert [f.request_id for f in first.requests] == [0, 1]
        assert [f.request_id for f in second.requests] == [2]

    def test_deadline_flushes_partial_batch(self):
        batcher = DynamicBatcher(BatchingConfig(max_batch_samples=64,
                                                max_wait_s=0.02))
        batcher.submit(make_future(0))
        start = time.perf_counter()
        batch = batcher.next_batch()
        elapsed = time.perf_counter() - start
        assert len(batch.requests) == 1
        assert elapsed < 1.0            # flushed by deadline, not starvation

    def test_oversized_request_dispatches_alone(self):
        batcher = DynamicBatcher(BatchingConfig(max_batch_samples=4,
                                                max_wait_s=0.01))
        batcher.submit(make_future(0, samples=9))
        batcher.submit(make_future(1, samples=1))
        first = batcher.next_batch()
        assert [f.request_id for f in first.requests] == [0]
        assert first.num_samples == 9

    def test_overshooting_request_opens_the_next_batch(self):
        """Regression: the cap was tested before appending, so 15 queued
        images + a 4-image request dispatched as 19 > 16."""
        batcher = DynamicBatcher(BatchingConfig(max_batch_samples=16))
        for i in range(15):
            batcher.submit(make_future(i))
        batcher.submit(make_future(15, samples=4))
        batcher.submit(make_future(16))
        first = batcher.next_batch()
        second = batcher.next_batch()
        assert first.num_samples == 15
        assert [f.request_id for f in second.requests] == [15, 16]
        assert second.num_samples == 5

    def test_late_arrival_joins_open_batch(self):
        batcher = DynamicBatcher(BatchingConfig(max_batch_samples=8,
                                                max_wait_s=0.2))
        batcher.submit(make_future(0))

        def late_submit():
            time.sleep(0.03)
            batcher.submit(make_future(1))

        thread = threading.Thread(target=late_submit)
        thread.start()
        batch = batcher.next_batch()
        thread.join()
        assert [f.request_id for f in batch.requests] == [0, 1]


class TestIdleLoopDispatch:
    """Default policy: no timer against a request that finds the serve
    loop idle; a short batch lingers only right after the loop came back."""

    def test_lone_request_is_handed_over_at_once(self):
        batcher = DynamicBatcher()      # default config: no wait window
        waits = []

        def serve():
            while (batch := batcher.next_batch()) is not None:
                now = time.perf_counter()
                waits.extend(now - f.telemetry.enqueued_at
                             for f in batch.requests)

        thread = threading.Thread(target=serve)
        thread.start()
        for i in range(20):
            time.sleep(3 * LINGER_S)    # the loop has been idle for a while
            batcher.submit(make_future(i))
        time.sleep(3 * LINGER_S)
        batcher.close()
        thread.join(timeout=5.0)
        assert len(waits) == 20
        assert sorted(waits)[len(waits) // 2] < 1e-3

    def test_short_batch_lingers_for_the_clients_just_answered(
            self, monkeypatch):
        """Two closed-loop clients resubmit a moment apart right after
        their batch: they must share the next batch, not alternate.

        The window is widened to 50 ms (the batcher reads ``LINGER_S`` on
        every call): the second client still comes back within
        ``LINGER_S / 4`` of the real 2 ms, but a cold run's slow thread
        start can no longer outlast the window."""
        monkeypatch.setattr(batcher_module, "LINGER_S", 0.05)
        batcher = DynamicBatcher()
        batcher.submit(make_future(0, samples=4))
        timer = threading.Timer(LINGER_S / 4, batcher.submit,
                                (make_future(1, samples=4),))
        timer.start()
        start = time.perf_counter()
        batch = batcher.next_batch()    # the loop comes back for work now
        elapsed = time.perf_counter() - start
        timer.join()
        assert [f.request_id for f in batch.requests] == [0, 1]
        assert batcher_module.LINGER_S * 0.9 <= elapsed < 0.5

    def test_a_full_batch_does_not_linger(self):
        batcher = DynamicBatcher(BatchingConfig(max_batch_samples=4))
        waits = []
        for i in range(20):
            batcher.submit(make_future(i, samples=4))
            start = time.perf_counter()
            batcher.next_batch()
            waits.append(time.perf_counter() - start)
        assert sorted(waits)[len(waits) // 2] < LINGER_S / 2

    def test_arrivals_during_a_slow_batch_coalesce_up_to_the_cap(self):
        batcher = DynamicBatcher(BatchingConfig(max_batch_samples=8))
        batcher.submit(make_future(0))
        in_flight = batcher.next_batch()
        assert in_flight.num_samples == 1
        # The (fake) serve loop is now busy with that batch; eleven more
        # requests arrive meanwhile.
        for i in range(1, 12):
            batcher.submit(make_future(i))
        start = time.perf_counter()
        second = batcher.next_batch()
        third = batcher.next_batch()
        assert time.perf_counter() - start < 0.05
        assert [f.request_id for f in second.requests] == list(range(1, 9))
        assert [f.request_id for f in third.requests] == [9, 10, 11]

    def test_explicit_max_wait_still_coalesces_late_arrivals(self):
        batcher = DynamicBatcher(BatchingConfig(max_batch_samples=8,
                                                max_wait_s=0.01))
        batcher.submit(make_future(0))
        timer = threading.Timer(0.003, batcher.submit, (make_future(1),))
        timer.start()
        start = time.perf_counter()
        batch = batcher.next_batch()
        elapsed = time.perf_counter() - start
        timer.join()
        assert [f.request_id for f in batch.requests] == [0, 1]
        assert 0.009 <= elapsed < 0.5   # the window was held open in full


class TestAdmissionAndShutdown:
    def test_queue_capacity_rejects_with_typed_error(self, monkeypatch):
        monkeypatch.setattr(batcher_module, "QUEUE_CAPACITY", 2)
        batcher = DynamicBatcher(BatchingConfig())
        batcher.submit(make_future(0))
        batcher.submit(make_future(1))
        with pytest.raises(QueueFullError):
            batcher.submit(make_future(2))

    def test_close_unblocks_next_batch_and_rejects_submits(self):
        batcher = DynamicBatcher(BatchingConfig())
        batcher.close()
        assert batcher.next_batch() is None
        with pytest.raises(RequestError):
            batcher.submit(make_future(0))

    def test_close_wakes_a_blocked_next_batch_directly(self):
        """No idle poll: a parked serve loop is woken by close() itself."""
        batcher = DynamicBatcher()
        woke = {}

        def serve():
            woke["batch"] = batcher.next_batch()
            woke["at"] = time.perf_counter()

        thread = threading.Thread(target=serve)
        thread.start()
        time.sleep(0.05)                # let it block on the empty queue
        closed_at = time.perf_counter()
        batcher.close()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert woke["batch"] is None
        assert woke["at"] - closed_at < 0.05

    def test_close_cuts_an_open_wait_window_short(self):
        batcher = DynamicBatcher(BatchingConfig(max_wait_s=10.0))
        batcher.submit(make_future(0))
        threading.Timer(0.02, batcher.close).start()
        start = time.perf_counter()
        batch = batcher.next_batch()
        assert time.perf_counter() - start < 1.0
        assert [f.request_id for f in batch.requests] == [0]
        assert batcher.next_batch() is None

    def test_closed_batcher_still_hands_out_the_backlog(self):
        batcher = DynamicBatcher(BatchingConfig(max_batch_samples=2))
        for i in range(3):
            batcher.submit(make_future(i))
        batcher.close()
        assert batcher.next_batch().num_samples == 2
        assert batcher.next_batch().num_samples == 1
        assert batcher.next_batch() is None

    def test_drain_returns_leftovers(self):
        batcher = DynamicBatcher(BatchingConfig())
        batcher.submit(make_future(0))
        batcher.submit(make_future(1))
        assert [f.request_id for f in batcher.drain()] == [0, 1]
        assert batcher.drain() == []


class TestServedFuture:
    def test_result_blocks_until_set(self):
        future = make_future(0)
        threading.Timer(0.02, future.set_result, (np.array([1]),)).start()
        assert future.result(timeout=5.0) == np.array([1])
        assert future.done()

    def test_error_propagates(self):
        future = make_future(0)
        future.set_error(RequestError("boom"))
        with pytest.raises(RequestError, match="boom"):
            future.result(timeout=1.0)
        assert future.telemetry.error == "boom"

    def test_timeout_raises(self):
        with pytest.raises(TimeoutError):
            make_future(0).result(timeout=0.01)


class TestSplitBatch:
    def test_round_trip(self):
        data = np.arange(10)
        chunks = split_batch(data, [3, 1, 6])
        assert [len(c) for c in chunks] == [3, 1, 6]
        np.testing.assert_array_equal(np.concatenate(chunks), data)

    def test_size_mismatch_raises(self):
        with pytest.raises(ValueError):
            split_batch(np.arange(5), [2, 2])
