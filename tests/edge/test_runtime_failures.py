"""Edge-runtime failure paths: crashes, timeouts, bad replies, shutdown.

The seed implementation blocked forever in ``conn.recv()`` when a worker
died mid-request; these tests pin the fixed behavior — every failure mode
surfaces as a typed :exc:`WorkerFailure` within a bounded time.
"""

import time

import numpy as np
import pytest

from repro.edge.device import DeviceModel
from repro.edge.network import LinkModel
from repro.edge import runtime, wire
from repro.edge.runtime import EdgeCluster, WorkerFailure, WorkerSpec
from repro.models.vit import ViTConfig, VisionTransformer


def tiny_model(seed=0):
    cfg = ViTConfig(image_size=8, patch_size=4, num_classes=3,
                    depth=1, embed_dim=8, num_heads=2)
    return VisionTransformer(cfg, rng=np.random.default_rng(seed))


def make_worker(worker_id, seed=0, macs_per_second=1e12):
    model = tiny_model(seed=seed)
    return WorkerSpec.from_model(
        worker_id, model, "vit", flops_per_sample=1e6,
        device=DeviceModel(device_id=worker_id,
                           macs_per_second=macs_per_second),
        link=LinkModel(bandwidth_bps=1e9, overhead_seconds=0.0))


X = np.zeros((2, 3, 8, 8), dtype=np.float32)


@pytest.fixture(autouse=True)
def bounded_infer(monkeypatch):
    """A failure that should be typed surfaces well inside 10 s."""
    monkeypatch.setattr(runtime, "INFER_TIMEOUT_S", 10.0)


class TestWorkerCrash:
    def test_dead_worker_raises_instead_of_hanging(self):
        with EdgeCluster([make_worker("a"), make_worker("b", seed=1)]) as cluster:
            cluster.kill_worker("a")
            with pytest.raises(WorkerFailure) as info:
                cluster.infer_features(X)
            assert info.value.worker_id == "a"
            assert "a" in cluster.down_workers

    def test_surviving_worker_still_answers_after_peer_death(self):
        with EdgeCluster([make_worker("a"), make_worker("b", seed=1)]) as cluster:
            healthy, _ = cluster.infer_features(X)
            cluster.kill_worker("a")
            with pytest.raises(WorkerFailure):
                cluster.infer_features(X)
            # The non-blocking primitives keep working on the survivor.
            request_id = cluster.next_request_id()
            assert cluster.submit("b", request_id, X)
            reply = None
            for _ in range(100):
                replies = cluster.poll(0.1)
                fresh = [m for w, m in replies
                         if w == "b" and m[0] == "features"
                         and m[1] == request_id]
                if fresh:
                    reply = fresh[0]
                    break
            assert reply is not None
            np.testing.assert_allclose(reply[2], healthy["b"])

    @pytest.mark.parametrize("transport", ["inprocess", "multiprocess", "tcp"])
    def test_slow_worker_times_out(self, transport, monkeypatch):
        # A hung worker is alive but silent: 2 x 1.5e6 MACs at 1e6 MACs/s
        # is 3 s of emulated compute, which time_scale=1 sleeps — far past
        # the deadline, yet short enough that an in-process worker thread
        # (threads cannot be killed) exits soon after.
        spec = make_worker("slow", macs_per_second=1e6)
        spec.flops_per_sample = 1.5e6
        timeout = 0.3
        monkeypatch.setattr(runtime, "INFER_TIMEOUT_S", timeout)
        with EdgeCluster([spec], time_scale=1.0,
                         transport=transport) as cluster:
            start = time.perf_counter()
            with pytest.raises(WorkerFailure) as info:
                cluster.infer_features(X)
            assert time.perf_counter() - start < timeout + 0.5
            assert info.value.worker_id == "slow"
            assert info.value.reason.startswith("no reply within")
            assert "slow" in cluster.down_workers

    def test_timeout_marks_every_late_worker_down(self, monkeypatch):
        monkeypatch.setattr(runtime, "INFER_TIMEOUT_S", 0.3)
        late = []
        for worker_id in ("a", "b"):
            spec = make_worker(worker_id, macs_per_second=1e6)
            spec.flops_per_sample = 1.5e6
            late.append(spec)
        with EdgeCluster(late + [make_worker("c", seed=1)], time_scale=1.0,
                         transport="inprocess") as cluster:
            with pytest.raises(WorkerFailure) as info:
                cluster.infer_features(X)
            assert info.value.worker_id == "a"        # first in spec order
            assert set(cluster.down_workers) == {"a", "b"}


class TestBadReplies:
    def test_unknown_command_reply_is_typed_error(self):
        with EdgeCluster([make_worker("a")]) as cluster:
            cluster._handles["a"].send(("bogus",))
            replies = cluster.poll(5.0)
            assert replies and replies[0][1][0] == "error"
            assert "unknown wire command" in replies[0][1][2]
            # The worker survives a bad command and keeps serving.
            features, _ = cluster.infer_features(X)
            assert features["a"].shape[0] == len(X)

    def test_short_command_is_an_error_reply_and_the_worker_survives(self):
        """An INFER one element short is answered with the ``wire.check``
        text (no request id to carry) instead of ending the worker loop."""
        with EdgeCluster([make_worker("a")], transport="inprocess") as cluster:
            cluster._handles["a"].send(wire.infer_message(7, X)[:2])
            replies = cluster.poll(5.0)
            assert [wire.command(m) for _, m in replies] == [wire.ERROR]
            (_, reply), = replies
            assert wire.request_id(reply) is None
            assert "'infer' message has 2 elements" in wire.payload(reply)
            features, _ = cluster.infer_features(X)
            assert features["a"].shape[0] == len(X)

    def test_infer_error_reply_raises_but_worker_survives(self):
        with EdgeCluster([make_worker("a")]) as cluster:
            bad = np.zeros((1, 5, 8, 8), dtype=np.float32)   # wrong channels
            with pytest.raises(WorkerFailure):
                cluster.infer_features(bad)
            assert cluster.is_alive("a")
            features, _ = cluster.infer_features(X)
            assert features["a"].shape[0] == len(X)

    def test_stale_error_from_second_worker_does_not_poison_next_request(self):
        # Both workers error on the bad input; infer_features raises once
        # the gather has settled both.  The next (valid) request must not
        # trip over anything the failed one left behind.
        with EdgeCluster([make_worker("a"), make_worker("b", seed=1)]) as cluster:
            bad = np.zeros((1, 5, 8, 8), dtype=np.float32)
            with pytest.raises(WorkerFailure):
                cluster.infer_features(bad)
            features, _ = cluster.infer_features(X)
            assert set(features) == {"a", "b"}


class TestShutdown:
    def test_shutdown_twice_is_idempotent(self):
        cluster = EdgeCluster([make_worker("a")])
        cluster.start()
        cluster.shutdown()
        cluster.shutdown()                     # must be a no-op
        assert not cluster.started

    def test_shutdown_with_dead_worker_does_not_hang(self):
        cluster = EdgeCluster([make_worker("a"), make_worker("b", seed=1)])
        cluster.start()
        cluster.kill_worker("a")
        cluster.shutdown()                     # bounded, no exception
        assert not cluster.started

    def test_restart_after_shutdown(self):
        spec = make_worker("a")
        cluster = EdgeCluster([spec])
        cluster.start()
        cluster.shutdown()
        cluster.start()
        features, _ = cluster.infer_features(X)
        assert features["a"].shape[0] == len(X)
        cluster.shutdown()


class TestMarkDown:
    def test_mark_down_excludes_worker_from_liveness(self):
        with EdgeCluster([make_worker("a"), make_worker("b", seed=1)]) as cluster:
            cluster.mark_down("a", "operator said so")
            assert [w for w in cluster.worker_ids
                    if cluster.is_alive(w)] == ["b"]
            assert cluster.down_workers == {"a": "operator said so"}
            cluster.mark_down("a", "again")    # idempotent, keeps first reason
            assert cluster.down_workers["a"] == "operator said so"
