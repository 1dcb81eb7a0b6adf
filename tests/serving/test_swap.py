"""Rolling-swap tests: zero-downtime worker replacement."""

import threading
import time

import numpy as np
import pytest

from repro.edge.device import DeviceModel
from repro.edge.network import LinkModel
from repro.edge.runtime import EdgeCluster, WorkerSpec
from repro.obs import get_registry
from repro.planning import plan_demo_system
from repro.serving import InferenceServer
from repro.store import ArtifactStore


@pytest.fixture(scope="module")
def system():
    return plan_demo_system(num_workers=2, train_fusion=True,
                            fusion_epochs=2, transport="inprocess")


def replacement_spec(system, index: int, worker_id: str) -> WorkerSpec:
    return WorkerSpec.from_model(
        worker_id, system.models[index], "vit", flops_per_sample=1e6,
        device=DeviceModel(device_id=worker_id, macs_per_second=1e12),
        link=LinkModel(bandwidth_bps=1e9, overhead_seconds=0.0))


def test_swap_retargets_slot_and_retires_old(system):
    w0 = system.plan.model_ids[0]
    x = np.random.default_rng(0).normal(
        size=(4, *system.input_shape)).astype(np.float32)
    ref = system.local_fused_labels(x)
    with InferenceServer(system.make_cluster(), system.fusion) as server:
        np.testing.assert_array_equal(server.infer(x), ref)
        new_id = server.swap_worker(w0, replacement_spec(system, 0,
                                                         f"{w0}@v2"))
        assert new_id == f"{w0}@v2"
        assert server.hosting()[w0] == f"{w0}@v2"
        assert server.worker_health()[w0] == "retired by rolling swap"
        # Slots are immutable; only the hosting changed.
        assert server.slots == system.plan.model_ids
        np.testing.assert_array_equal(server.infer(x), ref)
        assert server.stats().failed == 0


# Per-image (compute_s, transfer_s) of every worker on a time-scaled link:
# batches overlap, so the swap lands with one batch on the wire.
TIME_SCALED = (1e-3, 4e-3)


def served(system, timed_spec, timing):
    """A server over ``system``: on the plan's links (``timing=None``), or
    with every worker's one-image cost set to ``timing`` at time_scale 1."""
    if timing is None:
        return InferenceServer(system.make_cluster(), system.fusion)
    specs = [timed_spec(spec, *timing)
             for spec in system.make_cluster().specs]
    return InferenceServer(EdgeCluster(specs, time_scale=1.0,
                                       transport=system.transport),
                           system.fusion)


@pytest.mark.parametrize("timing", [None, TIME_SCALED],
                         ids=["plan-link", "time-scaled-link"])
def test_swap_under_load_drops_nothing(system, timed_spec, timing):
    w0 = system.plan.model_ids[0]
    x = np.random.default_rng(1).normal(
        size=(2, *system.input_shape)).astype(np.float32)
    ref = system.local_fused_labels(x)
    replacement = replacement_spec(system, 0, f"{w0}@v2")
    if timing is not None:
        replacement = timed_spec(replacement, *timing)
    with served(system, timed_spec, timing) as server:
        stop = threading.Event()
        errors: list[Exception] = []

        def client():
            while not stop.is_set():
                try:
                    server.infer(x, timeout=10.0)
                except Exception as exc:   # pragma: no cover - failure path
                    errors.append(exc)

        threads = [threading.Thread(target=client) for _ in range(3)]
        for thread in threads:
            thread.start()
        try:
            time.sleep(0.1)
            server.swap_worker(w0, replacement)
            time.sleep(0.1)
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        post = server.infer(x, timeout=10.0)
        report = server.stats()
    assert not errors
    assert report.failed == 0
    # Zero-downtime: no batch was ever fused with a zero-filled slot.
    assert report.degraded_requests == 0
    np.testing.assert_array_equal(post, ref)


def test_a_reply_on_the_wire_is_delivered_after_its_worker_retires(
        system, timed_spec):
    """The rule: a received reply is delivered.  The swap retires the old
    worker once its reply is received, while that reply still has ~0.6 s
    of emulated wire ahead; the batch is answered from the old worker's
    features, not zero-filled."""
    w0 = system.plan.model_ids[0]
    timing = (1e-3, 0.3)
    x = np.random.default_rng(3).normal(
        size=(2, *system.input_shape)).astype(np.float32)
    replies = get_registry().counter("edge.replies_total", worker=w0)
    with served(system, timed_spec, timing) as server:
        before = replies.value
        future = server.submit(x)
        deadline = time.perf_counter() + 10.0
        while replies.value == before and time.perf_counter() < deadline:
            time.sleep(1e-3)
        server.swap_worker(
            w0, timed_spec(replacement_spec(system, 0, f"{w0}@v2"), *timing))
        assert server.worker_health()[w0] == "retired by rolling swap"
        assert not future.done()                   # still on the wire
        labels = future.result(10.0)
    assert not future.telemetry.degraded
    np.testing.assert_array_equal(labels, system.local_fused_labels(x))


def test_swap_rejects_wrong_feature_dim(system):
    from repro.models.vit import ViTConfig, VisionTransformer

    w0 = system.plan.model_ids[0]
    wide = VisionTransformer(
        ViTConfig(image_size=8, patch_size=4, num_classes=10, depth=1,
                  embed_dim=16, num_heads=2),
        rng=np.random.default_rng(0))
    with InferenceServer(system.make_cluster(), system.fusion) as server:
        bad = WorkerSpec.from_model(
            f"{w0}@bad", wide, "vit", flops_per_sample=1e6,
            device=DeviceModel(device_id=f"{w0}@bad", macs_per_second=1e12),
            link=LinkModel(bandwidth_bps=1e9, overhead_seconds=0.0))
        assert bad.feature_dim != server._slot_dims[w0]
        with pytest.raises(ValueError, match="feature"):
            server.swap_worker(w0, bad)
        # The old worker keeps serving.
        assert server.hosting()[w0] == w0
        assert server.cluster.is_alive(w0)


def test_swap_unknown_slot_raises(system):
    with InferenceServer(system.make_cluster(), system.fusion) as server:
        with pytest.raises(KeyError):
            server.swap_worker("nope", replacement_spec(system, 0, "x@v2"))


def test_swap_failed_startup_keeps_old_worker(system):
    w0 = system.plan.model_ids[0]
    with InferenceServer(system.make_cluster(), system.fusion) as server:
        spec = replacement_spec(system, 0, f"{w0}@v2")
        spec.model_kind = "no-such-kind"   # worker will fail to build
        with pytest.raises(RuntimeError):
            server.swap_worker(w0, spec)
        assert server.hosting()[w0] == w0
        assert server.cluster.is_alive(w0)
        x = np.random.default_rng(2).normal(
            size=(2, *system.input_shape)).astype(np.float32)
        np.testing.assert_array_equal(server.infer(x),
                                      system.local_fused_labels(x))


def test_swap_before_start_raises(system):
    w0 = system.plan.model_ids[0]
    server = InferenceServer(system.make_cluster(), system.fusion)
    with pytest.raises(RuntimeError, match="start"):
        server.swap_worker(w0, replacement_spec(system, 0, f"{w0}@v2"))


def test_swap_from_store_full_cycle(tmp_path):
    store = ArtifactStore(tmp_path / "artifacts")
    planned = plan_demo_system(num_workers=2, seed=0, train_fusion=True,
                               fusion_epochs=2, store=store,
                               transport="inprocess")
    dataset = planned.eval_dataset()
    x = dataset.x_test.astype(np.float32)
    y = np.asarray(dataset.y_test)
    healthy = planned.local_accuracy(x, y)
    victim = planned.plan.model_ids[0]
    with planned.make_server() as server:
        new_id = planned.swap_from_store(server, victim, store)
        assert new_id == f"{victim}@swap1"
        assert server.hosting()[victim] == new_id
        served = float((server.infer(x, timeout=30.0) == y).mean())
        report = server.stats()
    assert served == healthy
    assert report.failed == 0
