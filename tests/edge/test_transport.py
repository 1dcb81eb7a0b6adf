"""Transport-layer tests: the same cluster contract over every substrate.

``inprocess`` and ``tcp`` get the full treatment here; ``multiprocess``
(the default) is already exercised by the rest of the edge suite, so it
only appears in the shared contract matrix.
"""

import socket
import statistics
import time

import numpy as np
import pytest

from repro import nn
from repro.edge.codec import get_codec
from repro.edge.device import DeviceModel
from repro.edge.network import LinkModel
from repro.edge.runtime import EdgeCluster, WorkerSpec
from repro.edge.transport import (
    InProcessTransport,
    TcpTransport,
    Transport,
    get_transport,
)
from repro.models.vit import ViTConfig, VisionTransformer

X = np.random.default_rng(0).normal(size=(3, 3, 8, 8)).astype(np.float32)


def tiny_model(seed=0):
    cfg = ViTConfig(image_size=8, patch_size=4, num_classes=3,
                    depth=1, embed_dim=8, num_heads=2)
    return VisionTransformer(cfg, rng=np.random.default_rng(seed))


def make_worker(worker_id, seed=0, codec="raw32"):
    model = tiny_model(seed)
    spec = WorkerSpec.from_model(
        worker_id, model, "vit", flops_per_sample=1e6,
        device=DeviceModel(device_id=worker_id, macs_per_second=1e12),
        link=LinkModel(bandwidth_bps=1e9, overhead_seconds=0.0))
    spec.codec = codec
    return spec, model


def local_features(model, x):
    model.eval()
    with nn.no_grad():
        return model.forward_features(nn.Tensor(x)).data


def tcp_nodelay(conn) -> int:
    sock = socket.socket(fileno=conn.fileno())
    try:
        return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
    finally:
        sock.detach()


def echo_worker(spec, conn):
    """``worker_main`` stand-in: reports its end's TCP_NODELAY, then
    echoes every message back until the parent hangs up."""
    conn.send(tcp_nodelay(conn))
    while True:
        try:
            conn.send(conn.recv())
        except (EOFError, OSError):
            return


class TestGetTransport:
    def test_resolves_names(self):
        assert get_transport("inprocess").name == "inprocess"
        assert get_transport("tcp").name == "tcp"
        assert get_transport(None).name == "multiprocess"

    def test_passes_instances_through(self):
        transport = InProcessTransport()
        assert get_transport(transport) is transport

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown transport"):
            get_transport("carrier-pigeon")


@pytest.mark.parametrize("transport", ["inprocess", "multiprocess", "tcp"])
class TestClusterContract:
    """Every transport honours the same EdgeCluster surface."""

    def test_features_match_local_models(self, transport):
        specs_models = [make_worker(f"w{i}", seed=i) for i in range(2)]
        specs = [sm[0] for sm in specs_models]
        with EdgeCluster(specs, transport=transport) as cluster:
            features, timing = cluster.infer_features(X)
            for i, (_, model) in enumerate(specs_models):
                np.testing.assert_allclose(features[f"w{i}"],
                                           local_features(model, X),
                                           atol=1e-5)
            for report in timing.per_worker.values():
                assert report["bytes_out"] > 0
                assert report["bytes_in"] == X.nbytes

    def test_restart_after_shutdown(self, transport):
        spec, _ = make_worker("r0")
        cluster = EdgeCluster([spec], transport=transport)
        with cluster:
            cluster.infer_features(X)
        with cluster:                  # same cluster object, fresh workers
            cluster.infer_features(X)

    def test_kill_is_detected_and_survivors_serve(self, transport):
        specs = [make_worker(f"w{i}", seed=i)[0] for i in range(2)]
        cluster = EdgeCluster(specs, transport=transport)
        cluster.start()
        try:
            cluster.kill_worker("w0")
            deadline = time.monotonic() + 5.0
            while cluster.is_alive("w0") and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not cluster.is_alive("w0")
            assert cluster.submit("w1", 1, X)
            got = False
            deadline = time.monotonic() + 10.0
            while not got and time.monotonic() < deadline:
                got = any(m[0] == "features" and m[1] == 1
                          for _, m in cluster.poll(0.2))
            assert got, "surviving worker never answered"
        finally:
            cluster.shutdown()

    def test_submit_to_killed_worker_marks_down(self, transport):
        spec, _ = make_worker("solo")
        cluster = EdgeCluster([spec], transport=transport)
        cluster.start()
        try:
            cluster.kill_worker("solo")
            deadline = time.monotonic() + 5.0
            while cluster.is_alive("solo") and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not cluster.submit("solo", 1, X)
            assert "solo" in cluster.down_workers
        finally:
            cluster.shutdown()


class TestFloat32Canonicalization:
    """Regression: a float64 caller must not double wire bytes/time."""

    def test_float64_input_costs_float32_bytes(self):
        spec, _ = make_worker("w")
        with EdgeCluster([spec], transport="inprocess") as cluster:
            x64 = X.astype(np.float64)
            _, t32 = cluster.infer_features(X)
            _, t64 = cluster.infer_features(x64)
            assert t64.per_worker["w"]["bytes_in"] == X.nbytes
            assert t64.per_worker["w"]["emulated_transfer_s"] \
                == t32.per_worker["w"]["emulated_transfer_s"]

    def test_int_input_is_accepted_as_float32(self):
        spec, model = make_worker("w")
        with EdgeCluster([spec], transport="inprocess") as cluster:
            ints = np.zeros((1, 3, 8, 8), dtype=np.int64)
            features, _ = cluster.infer_features(ints)
            np.testing.assert_allclose(
                features["w"],
                local_features(model, ints.astype(np.float32)), atol=1e-5)


class TestCodecOnTheWire:
    def test_q8_shrinks_bytes_and_transfer_time(self):
        results = {}
        for codec in ("raw32", "q8"):
            spec, _ = make_worker("w", codec=codec)
            with EdgeCluster([spec], transport="inprocess") as cluster:
                _, timing = cluster.infer_features(X)
                results[codec] = timing.per_worker["w"]
        assert results["q8"]["bytes_out"] < results["raw32"]["bytes_out"]
        assert results["q8"]["emulated_transfer_s"] \
            < results["raw32"]["emulated_transfer_s"]

    def test_lossy_features_decode_within_codec_bound(self):
        spec, model = make_worker("w", codec="q8+zlib")
        with EdgeCluster([spec], transport="inprocess") as cluster:
            features, _ = cluster.infer_features(X)
        local = local_features(model, X)
        codec = get_codec("q8+zlib")
        expected = codec.decode(codec.encode(local))
        np.testing.assert_allclose(features["w"], expected, atol=1e-6)



class TestInProcessShutdownLatency:
    def test_shutdown_after_kill_does_not_stall(self):
        """Regression: a killed worker's closed mailbox must not make the
        shutdown drain wait out its full per-worker deadline."""
        specs = [make_worker(f"w{i}", seed=i)[0] for i in range(2)]
        cluster = EdgeCluster(specs, transport="inprocess")
        cluster.start()
        cluster.kill_worker("w0")
        start = time.monotonic()
        cluster.shutdown()
        assert time.monotonic() - start < 2.0


class TestStartupFailures:
    @pytest.mark.parametrize("transport", ["inprocess", "multiprocess", "tcp"])
    @pytest.mark.parametrize("field", ["model_kind", "codec"])
    def test_unknown_name_is_a_typed_startup_failure(self, field, transport):
        """A spec naming a kind or codec the worker's tables lack fails
        the start with the name, not a bare EOFError or a timeout."""
        spec, _ = make_worker("w")
        setattr(spec, field, "never-known")
        cluster = EdgeCluster([spec], transport=transport)
        try:
            with pytest.raises(RuntimeError,
                               match="w failed to start.*never-known"):
                cluster.start()
        finally:
            cluster.shutdown()


class TestTcpTransport:
    def test_accept_times_out_instead_of_hanging(self):
        transport = TcpTransport()
        transport._ACCEPT_TIMEOUT_S = 0.3
        listener = transport._ensure_listener()
        start = time.monotonic()
        with pytest.raises(TimeoutError, match="no TCP dial-back"):
            transport._accept(listener)    # nobody ever dials back
        assert time.monotonic() - start < 5.0
        transport.close()

    def test_listener_recycles_after_close(self):
        transport = TcpTransport()
        spec, _ = make_worker("w")
        cluster = EdgeCluster([spec], transport=transport)
        with cluster:
            first = transport._listener
            cluster.infer_features(X)
        assert transport._listener is None  # shutdown closed the listener
        with cluster:                       # a fresh listener is bound
            assert transport._listener not in (None, first)
            cluster.infer_features(X)

    def test_is_a_transport(self):
        assert isinstance(TcpTransport(), Transport)

    def test_large_messages_do_not_stall_on_nagle(self):
        """Regression: a message over 16 KiB goes out as two send()s
        (header, body); without TCP_NODELAY the body waited ~40 ms for
        the peer's delayed ACK of the header, in each direction."""
        transport = TcpTransport()
        spec, _ = make_worker("echo")
        handle, = transport.launch([spec], echo_worker)
        try:
            assert handle.poll(30.0)
            assert handle.recv() != 0              # worker (dialled) end
            assert tcp_nodelay(handle.conn) != 0   # parent (accepted) end
            payload = bytes(32 * 1024)
            round_trips = []
            for _ in range(20):
                start = time.perf_counter()
                handle.send(payload)
                assert handle.poll(5.0)
                assert handle.recv() == payload
                round_trips.append(time.perf_counter() - start)
            assert statistics.median(round_trips) < 0.010
        finally:
            handle.close()
            handle.join(5.0)
            transport.close()
        assert not handle.alive()
