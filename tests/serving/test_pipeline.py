"""No reply crosses batches when batches overlap.

The serve loop dispatches batch k+1 while batch k is still on the
emulated wire.  Over seeded per-worker compute and transfer times, with
two closed-loop clients, every request must still be answered exactly
once with the labels of its own rows, and the serving counters must
account for every submit.
"""

import collections
import sys
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.edge.runtime import EdgeCluster
from repro.obs import get_registry
from repro.planning import plan_demo_system
from repro.serving import (
    BatchingConfig,
    InferenceServer,
    RequestError,
    ServerConfig,
)
from repro.serving.batcher import LINGER_S, ServedFuture

REQUESTS_PER_CLIENT = 6
COUNTERS = ("requests", "failed", "degraded", "dropped")


@pytest.fixture(scope="module")
def system():
    return plan_demo_system(num_workers=2, transport="inprocess")


def counter(name):
    return get_registry().counter(f"serving.{name}_total").value


def overlapping_batches(telemetry):
    """Pairs of consecutive batches where the later one was dispatched
    before the earlier one was answered."""
    spans = sorted({(t.dispatched_at, t.completed_at) for t in telemetry})
    return sum(later[0] < earlier[1]
               for earlier, later in zip(spans, spans[1:]))


# Per-image seconds.  The clients start out of step, and a transfer that
# outlasts the batcher's linger keeps them so: their batches overlap.
compute_s = st.floats(min_value=0.5e-3, max_value=3e-3)
transfer_s = st.floats(min_value=3e-3, max_value=8e-3)


@settings(max_examples=8, deadline=None)
@given(timings=st.lists(st.tuples(compute_s, transfer_s),
                        min_size=2, max_size=2),
       seed=st.integers(min_value=0, max_value=2**16))
def test_no_reply_crosses_batches(system, timed_spec, timings, seed):
    specs = system.make_cluster().specs
    cluster = EdgeCluster([timed_spec(spec, *timing)
                           for spec, timing in zip(specs, timings)],
                          time_scale=1.0, transport="inprocess")
    server = InferenceServer(cluster, system.fusion, ServerConfig(
        batching=BatchingConfig(max_batch_samples=8)))
    rng = np.random.default_rng(seed)
    pool = rng.normal(size=(16, *system.input_shape)).astype(np.float32)
    plans = [[rng.choice(len(pool), size=rng.integers(1, 5), replace=False)
              for _ in range(REQUESTS_PER_CLIENT)] for _ in range(2)]
    sent: list[tuple[np.ndarray, ServedFuture]] = []
    dropped = []
    resolutions = collections.Counter()

    def counted(method):
        def resolve(future, value):
            resolutions[future.request_id] += 1
            return method(future, value)
        return resolve

    first_sent = threading.Event()

    def client(rows_per_request, lead):
        if not lead:
            # Start out of step: the lead's first batch is already
            # computing or on the wire when this client's first arrives.
            first_sent.wait(10.0)
            time.sleep(1e-3)
        for rows in rows_per_request:
            try:
                future = server.submit(pool[rows])
            except RequestError as exc:
                dropped.append(exc)
                continue
            finally:
                first_sent.set()
            sent.append((rows, future))
            try:
                future.result(30.0)
            except RequestError:
                pass

    with server:
        # Warm the workers, then let the idle loop's linger run out so the
        # lead's first request is dispatched alone.
        server.infer(pool[:1])
        time.sleep(2 * LINGER_S)
        before = {name: counter(name) for name in COUNTERS}
        # Six threads (two clients, serve loop, completion, two workers);
        # a short switch interval makes a lost update between them
        # likelier to show.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with mock.patch.object(ServedFuture, "set_result",
                                   counted(ServedFuture.set_result)), \
                    mock.patch.object(ServedFuture, "set_error",
                                      counted(ServedFuture.set_error)):
                clients = [threading.Thread(target=client, args=(plan, lead))
                           for plan, lead in zip(plans, (True, False))]
                for thread in clients:
                    thread.start()
                for thread in clients:
                    thread.join(60.0)
                    assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
    delta = {name: counter(name) - before[name] for name in COUNTERS}

    ok = degraded = failed = 0
    for rows, future in sent:
        assert resolutions[future.request_id] == 1
        try:
            labels = future.result(0)
        except RequestError:
            failed += 1
            continue
        np.testing.assert_array_equal(labels,
                                      system.local_fused_labels(pool[rows]))
        degraded += future.telemetry.degraded
        ok += not future.telemetry.degraded
    assert len(sent) + len(dropped) == 2 * REQUESTS_PER_CLIENT
    assert sum(resolutions.values()) == len(sent)
    assert delta["requests"] == ok + degraded + failed == len(sent)
    assert delta["failed"] == failed
    assert delta["degraded"] == degraded
    assert delta["dropped"] == len(dropped)
    # No fault is injected, so every request is served from all workers.
    assert ok == len(sent)
    # The inputs did what they are for: batches were in flight together.
    assert overlapping_batches([future.telemetry for _, future in sent]) > 0
