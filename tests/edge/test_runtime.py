"""Process-based edge-emulation tests.

These spawn real OS processes; models are kept minuscule so the suite
stays fast.
"""

import time

import numpy as np
import pytest

from repro import nn
from repro.edge.device import DeviceModel
from repro.edge.network import LinkModel, StarTopology
from repro.edge.runtime import EdgeCluster, WorkerSpec
from repro.edge.simulator import (
    DeploymentSpec,
    SubModelProfile,
    simulate_inference,
)
from repro.models.vit import ViTConfig, VisionTransformer


def tiny_model(num_classes=3, seed=0):
    cfg = ViTConfig(image_size=8, patch_size=4, num_classes=num_classes,
                    depth=1, embed_dim=8, num_heads=2)
    return VisionTransformer(cfg, rng=np.random.default_rng(seed))


def fast_device(device_id):
    return DeviceModel(device_id=device_id, macs_per_second=1e12)


def make_worker(worker_id, seed=0):
    model = tiny_model(seed=seed)
    return WorkerSpec.from_model(worker_id, model, "vit",
                                 flops_per_sample=1e6,
                                 device=fast_device(worker_id),
                                 link=LinkModel(bandwidth_bps=1e9,
                                                overhead_seconds=0.0)), model


def deployment_of(specs):
    """The simulator's view of a fleet of workers, with free fusion."""
    return DeploymentSpec(
        devices=list({s.device.device_id: s.device for s in specs}.values()),
        placement={s.worker_id: s.device.device_id for s in specs},
        profiles={s.worker_id: SubModelProfile(
            s.worker_id, s.flops_per_sample, s.feature_dim, s.codec)
            for s in specs},
        fusion_device=fast_device("fusion"),
        fusion_flops=0.0,
        topology=StarTopology({s.device.device_id: s.link for s in specs}))


@pytest.fixture(scope="module")
def cluster_and_models():
    specs_models = [make_worker(f"w{i}", seed=i) for i in range(2)]
    specs = [sm[0] for sm in specs_models]
    models = [sm[1] for sm in specs_models]
    cluster = EdgeCluster(specs, time_scale=0.0)
    cluster.start()
    yield cluster, models
    cluster.shutdown()


class TestEdgeCluster:
    def test_features_match_local_models(self, cluster_and_models):
        cluster, models = cluster_and_models
        x = np.random.default_rng(0).normal(size=(3, 3, 8, 8)).astype(np.float32)
        features, _ = cluster.infer_features(x)
        for i, model in enumerate(models):
            model.eval()
            with nn.no_grad():
                local = model.forward_features(nn.Tensor(x)).data
            np.testing.assert_allclose(features[f"w{i}"], local, atol=1e-5)

    def test_timing_report_fields(self, cluster_and_models):
        cluster, _ = cluster_and_models
        x = np.zeros((1, 3, 8, 8), dtype=np.float32)
        _, timing = cluster.infer_features(x)
        assert timing.wall_seconds > 0
        assert set(timing.per_worker) == {"w0", "w1"}
        for report in timing.per_worker.values():
            assert report["emulated_compute_s"] > 0
            assert report["emulated_transfer_s"] > 0

    def test_multiple_inferences_same_cluster(self, cluster_and_models):
        cluster, _ = cluster_and_models
        x = np.zeros((1, 3, 8, 8), dtype=np.float32)
        a, _ = cluster.infer_features(x)
        b, _ = cluster.infer_features(x)
        np.testing.assert_allclose(a["w0"], b["w0"])

    def test_infer_before_start_raises(self):
        spec, _ = make_worker("solo")
        cluster = EdgeCluster([spec])
        with pytest.raises(RuntimeError):
            cluster.infer_features(np.zeros((1, 3, 8, 8), dtype=np.float32))

    def test_duplicate_worker_ids_raise(self):
        spec, _ = make_worker("dup")
        with pytest.raises(ValueError):
            EdgeCluster([spec, spec])

    def test_empty_worker_list_raises(self):
        with pytest.raises(ValueError):
            EdgeCluster([])


class TestContextManager:
    def test_with_block_starts_and_stops(self):
        spec, model = make_worker("ctx")
        with EdgeCluster([spec]) as cluster:
            x = np.zeros((1, 3, 8, 8), dtype=np.float32)
            features, _ = cluster.infer_features(x)
            assert "ctx" in features
        # After exit, a new cluster can be built from the same spec.
        with EdgeCluster([spec]) as cluster:
            cluster.infer_features(x)

    def test_time_scale_slows_inference(self):
        spec, _ = make_worker("slow")
        # 1e6 MACs at 1e7 MACs/s = 0.1 s emulated; time_scale=1 sleeps it.
        spec.device = DeviceModel(device_id="slow", macs_per_second=1e7)
        with EdgeCluster([spec], time_scale=1.0) as cluster:
            x = np.zeros((1, 3, 8, 8), dtype=np.float32)
            start = time.perf_counter()
            cluster.infer_features(x)
            elapsed = time.perf_counter() - start
        assert elapsed >= 0.08


class TestEmulatedLink:
    """Each worker's link is a FIFO delay line on the receiving side."""

    COMPUTE_S, TRANSFER_S = 0.1, 0.2

    def test_back_to_back_batches_are_delivered_one_transfer_apart(
            self, timed_spec):
        spec = timed_spec(make_worker("fifo")[0], self.COMPUTE_S,
                          self.TRANSFER_S)
        x = np.zeros((1, 3, 8, 8), dtype=np.float32)
        received, delivered = [], []
        with EdgeCluster([spec], time_scale=1.0,
                         transport="inprocess") as cluster:
            for _ in range(2):
                request_id = cluster.next_request_id()
                assert cluster.submit("fifo", request_id, x)
                _, stats, failed = cluster.gather(request_id, ["fifo"], None)
                received.append(time.perf_counter())
                assert not failed
                delivered.append(stats["fifo"]["delivered_at"])
        transfer = stats["fifo"]["transfer_s"]
        assert transfer == pytest.approx(self.TRANSFER_S)
        # The device computed the second batch while the first was on the
        # wire, and the link carried the two transfers back to back: one
        # transfer apart, not compute + transfer.
        assert received[1] < delivered[0]
        assert delivered[1] - delivered[0] == pytest.approx(transfer)
        assert stats["fifo"]["queued_s"] > 0

    @pytest.mark.parametrize("time_scale", [1.0, 0.5])
    def test_an_idle_link_keeps_the_compute_plus_transfer_timing(
            self, timed_spec, time_scale):
        spec = timed_spec(make_worker("idle")[0], self.COMPUTE_S,
                          self.TRANSFER_S)
        x = np.zeros((1, 3, 8, 8), dtype=np.float32)
        with EdgeCluster([spec], time_scale=time_scale,
                         transport="inprocess") as cluster:
            # The first call warms the worker's arena; it returns once its
            # features are delivered, so the link is idle again.
            cluster.infer_features(x)
            _, timing = cluster.infer_features(x)
        report = timing.per_worker["idle"]
        expected = max(report["host_compute_s"],
                       (self.COMPUTE_S + self.TRANSFER_S) * time_scale)
        assert report["queued_s"] == 0.0
        assert expected <= timing.wall_seconds < expected + 0.05

    def test_two_workers_on_one_device_queue_on_its_cpu_and_link(
            self, timed_spec):
        specs = [timed_spec(make_worker(worker_id, seed=i)[0],
                            self.COMPUTE_S, self.TRANSFER_S, device_id="pi")
                 for i, worker_id in enumerate(("a", "b"))]
        x = np.zeros((1, 3, 8, 8), dtype=np.float32)
        with EdgeCluster(specs, time_scale=1.0,
                         transport="inprocess") as cluster:
            cluster.infer_features(x)      # warm; the device is idle again
            start = time.perf_counter()
            _, timing = cluster.infer_features(x)
        first, last = sorted(report["delivered_at"] - start
                             for report in timing.per_worker.values())
        # The DES runs one CPU and one link per device: the second
        # sub-model computes after the first (c), then waits for the
        # first transfer to end (max(c, t)), then transfers (t).
        predicted = simulate_inference(deployment_of(specs)).latencies[0]
        c, t = self.COMPUTE_S, self.TRANSFER_S
        assert predicted == pytest.approx(c + max(c, t) + t)
        assert predicted <= last < predicted + 0.05
        assert last - first == pytest.approx(t)    # one link, back to back

    def test_a_fleet_delivers_each_request_when_the_model_says(
            self, timed_spec):
        # Device "pi" hosts a pair with equal costs, so the order their
        # replies are charged in cannot matter.  Every transfer outlasts
        # the 50 ms arrival gap, so both uplinks queue more each request,
        # while each CPU is idle again before the next arrival.
        placed = {"a": (0.01, 0.04, "pi"), "b": (0.01, 0.04, "pi"),
                  "c": (0.03, 0.065, "solo")}
        specs = [timed_spec(make_worker(worker_id, seed=i)[0], *timing)
                 for i, (worker_id, timing) in enumerate(placed.items())]
        arrivals = [0.0, 0.05, 0.10, 0.15, 0.20, 0.25]
        x = np.zeros((1, 3, 8, 8), dtype=np.float32)
        served = []
        with EdgeCluster(specs, time_scale=1.0,
                         transport="inprocess") as cluster:
            cluster.infer_features(x)      # warm; every device is idle again
            t0 = time.perf_counter()
            for arrival in arrivals:
                time.sleep(max(0.0, t0 + arrival - time.perf_counter()))
                request_id = cluster.next_request_id()
                for worker_id in placed:
                    assert cluster.submit(worker_id, request_id, x)
                _, stats, failed = cluster.gather(request_id, placed, None)
                assert not failed
                served.append(max(s["delivered_at"] for s in stats.values())
                              - (t0 + arrival))
        predicted = simulate_inference(deployment_of(specs),
                                       arrival_times=arrivals).latencies
        assert predicted[-1] > predicted[0] + 0.1      # the links queue
        # A served request can only start later than the model's: by the
        # hop to its worker and by the sleep overshooting its arrival.
        # Both stay well under 50 ms on an idle host and are absorbed
        # once a link queues; a lost term of the FIFO recurrence shows as
        # served < predicted.
        for latency, model in zip(served, predicted):
            assert model - 1e-6 <= latency < model + 0.05
