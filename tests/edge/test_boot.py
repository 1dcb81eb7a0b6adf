"""Worker boot: one handshake, on every transport.

launch -> connect -> spec -> weights -> ready.  These tests pin what the
handshake owes its callers: a failed boot leaves nothing behind and can
be retried, a silent or dead child is a typed error within a bounded
time, a TCP connection belongs to the worker that greeted on it, and a
worker holds its sub-model once.
"""

import dataclasses
import multiprocessing
import multiprocessing.connection as mp_connection
import socket
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from repro import nn
from repro.edge import runtime, wire
from repro.edge.device import DeviceModel
from repro.edge.network import LinkModel
from repro.edge.runtime import EdgeCluster, WorkerSpec
from repro.edge.transport import (
    InProcessTransport,
    MultiprocessTransport,
    TcpTransport,
    reap,
)
from repro.models.vit import ViTConfig, VisionTransformer
from repro.planning import plan_demo_system
from repro.serving.demo import fused_labels

TRANSPORTS = ["inprocess", "multiprocess", "tcp"]
X = np.random.default_rng(0).normal(size=(3, 3, 8, 8)).astype(np.float32)


# The serving shape of the benchmark's compute fleet: 10.3 MB of weights.
COMPUTE_SHAPE = dict(image_size=32, patch_size=4, num_classes=10, depth=6,
                     embed_dim=192, num_heads=3)


def spec_for(worker_id, model, device_id=None):
    return WorkerSpec.from_model(
        worker_id, model, "vit", flops_per_sample=1e6,
        device=DeviceModel(device_id=device_id or worker_id,
                           macs_per_second=1e12),
        link=LinkModel(bandwidth_bps=1e9, overhead_seconds=0.0))


def make_worker(worker_id, seed=0, **config):
    cfg = ViTConfig(**{**dict(image_size=8, patch_size=4, num_classes=3,
                              depth=1, embed_dim=8, num_heads=2), **config})
    model = VisionTransformer(cfg, rng=np.random.default_rng(seed))
    return spec_for(worker_id, model), model


def local_features(model, x):
    model.eval()
    with nn.no_grad():
        return model.forward_features(nn.Tensor(x)).data


def assert_each_worker_serves_its_own_model(cluster, models):
    features, _ = cluster.infer_features(X)
    assert set(features) == set(models)
    for worker_id, model in models.items():
        np.testing.assert_allclose(features[worker_id],
                                   local_features(model, X), atol=1e-5)


def worker_threads():
    return [t for t in threading.enumerate()
            if t.name.startswith("edge-worker-")]


def assert_nothing_left_behind(transport, address=None):
    """No child process, worker thread or listener survives."""
    deadline = time.monotonic() + 5.0
    while (multiprocessing.active_children() or worker_threads()) \
            and time.monotonic() < deadline:
        time.sleep(0.01)
    assert multiprocessing.active_children() == []
    assert worker_threads() == []
    if isinstance(transport, TcpTransport):
        assert transport.address is None
        if address is not None:
            with pytest.raises(OSError):
                socket.create_connection(address, timeout=1.0).close()


# Stand-ins for ``_worker_main`` (module level: process transports pickle
# them by name).
def quitting_worker(spec, conn):
    """Exits without a word."""


def mute_worker(spec, conn):
    """Takes everything it is sent and never answers."""
    while True:
        try:
            conn.recv()
        except (EOFError, OSError):
            return


def biggest_bytes(obj, depth=0):
    """Size of the largest ``bytes`` or array reachable from ``obj``."""
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if depth > 6:
        return 0
    if dataclasses.is_dataclass(obj):
        obj = vars(obj)
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return max((biggest_bytes(item, depth + 1) for item in obj),
                   default=0)
    return 0


def weight_bytes(spec):
    return sum(array.nbytes for array in spec.state.values())


def module_arrays(model):
    return {**{name: p.data for name, p in model.named_parameters()},
            **dict(model.named_buffers())}


def process_args_worker(spec, conn):
    """Reports what this process was started with, and the spec it got."""
    process = multiprocessing.current_process()
    conn.send({"args": biggest_bytes([process._args, process._kwargs]),
               "weights": weight_bytes(spec), "worker_id": spec.worker_id})
    mute_worker(spec, conn)


def state_echo_worker(spec, conn):
    """Loads the streamed weights the way ``_worker_main`` does, answers
    READY, then sends the state dict it loaded."""
    with nn.init.unwritten():
        model = runtime.build_model(spec.model_kind, spec.model_config)
        if spec.quant != "fp32":
            model = nn.quantize_module(model, scheme=spec.quant)
    model.load_state_dict(runtime._received_weights(conn), adopt=True)
    model.eval()
    conn.send(wire.ready_message(spec.worker_id))
    conn.send(model.state_dict())
    mute_worker(spec, conn)


# ----------------------------------------------------------------------
@pytest.mark.parametrize("transport", TRANSPORTS)
class TestFailedStartLeavesNothing:
    def test_one_bad_spec_tears_the_fleet_down_and_start_can_retry(
            self, transport):
        specs_models = [make_worker(f"w{i}", seed=i) for i in range(3)]
        specs = [spec for spec, _ in specs_models]
        specs[2].codec = "no-such-codec"
        cluster = EdgeCluster(specs, transport=transport)
        with pytest.raises(RuntimeError,
                           match="worker w2 failed to start.*unknown "
                                 "feature codec"):
            cluster.start()
        assert not cluster.started
        assert_nothing_left_behind(cluster.transport)

        specs[2].codec = "raw32"
        with cluster:
            assert_each_worker_serves_its_own_model(
                cluster, {spec.worker_id: model
                          for spec, model in specs_models})
        assert_nothing_left_behind(cluster.transport)

    def test_state_that_does_not_load_is_a_typed_failure(self, transport):
        good, model = make_worker("good")
        bad, _ = make_worker("bad", seed=1)
        name = next(iter(bad.state))
        bad.state = {**bad.state, name: np.array(["not a weight"])}
        cluster = EdgeCluster([good, bad], transport=transport)
        with pytest.raises(RuntimeError, match="worker bad failed to start"):
            cluster.start()
        assert_nothing_left_behind(cluster.transport)
        with EdgeCluster([good], transport=transport) as cluster:
            with pytest.raises(RuntimeError,
                               match="worker bad failed to start"):
                cluster.add_worker(bad)
            assert "bad" in cluster.down_workers
        assert_nothing_left_behind(cluster.transport)

    @pytest.mark.parametrize("config, text", [
        ({"embed_dim": 64}, "ValueError: shape mismatch for "),
        ({"depth": 1}, "KeyError: .unexpected keys in state dict: "),
        ({"depth": 3}, "KeyError: .missing keys in state dict: "),
    ])
    def test_strict_load_violations_arrive_with_the_loaders_text(
            self, transport, config, text):
        # Over 1 MiB of weights: far more than a pipe buffers, so the
        # worker that gives up on the first array must still drain the rest.
        spec, _ = make_worker("w0", embed_dim=128, depth=2)
        assert weight_bytes(spec) > 1 << 20
        spec.model_config = {**spec.model_config, **config}
        cluster = EdgeCluster([spec], transport=transport)
        with pytest.raises(RuntimeError,
                           match="worker w0 failed to start: " + text):
            cluster.start()
        assert_nothing_left_behind(cluster.transport)

    def test_listener_is_released_by_a_failed_start(self, transport):
        if transport != "tcp":
            pytest.skip("only tcp binds a listener")
        tcp = TcpTransport()
        address = tcp._ensure_listener().getsockname()
        spec, _ = make_worker("w0")
        spec.model_kind = "no-such-kind"
        cluster = EdgeCluster([spec], transport=tcp)
        with pytest.raises(RuntimeError, match="unknown model kind"):
            cluster.start()
        assert_nothing_left_behind(tcp, address)


@pytest.mark.parametrize("transport", TRANSPORTS)
class TestStartIsBounded:
    """A child that never answers READY is a typed error, not a hang."""

    def boot(self, monkeypatch, transport, worker_main, ready_timeout):
        monkeypatch.setattr(runtime, "_worker_main", worker_main)
        specs = [make_worker(f"w{i}", seed=i)[0] for i in range(2)]
        cluster = EdgeCluster(specs, transport=transport)
        start = time.monotonic()
        with pytest.raises(RuntimeError) as info:
            cluster.start(ready_timeout=ready_timeout)
        elapsed = time.monotonic() - start
        assert not cluster.started
        assert_nothing_left_behind(cluster.transport)
        return str(info.value), elapsed

    def test_child_that_exits_without_replying(self, monkeypatch, transport):
        message, elapsed = self.boot(monkeypatch, transport,
                                     quitting_worker, ready_timeout=20.0)
        assert "worker w" in message and "died during startup" in message
        assert elapsed < 10.0          # noticed, not waited out

    def test_child_that_never_replies(self, monkeypatch, transport):
        message, elapsed = self.boot(monkeypatch, transport, mute_worker,
                                     ready_timeout=0.5)
        assert "worker w0 not ready within 0.5s" in message
        # Process transports spend the margin booting an interpreter.
        assert elapsed < 0.5 + 3.0

    def test_add_worker_shares_the_bounded_wait(self, monkeypatch,
                                                transport):
        spec, model = make_worker("w0")
        with EdgeCluster([spec], transport=transport) as cluster:
            monkeypatch.setattr(runtime, "_worker_main", mute_worker)
            late, _ = make_worker("late", seed=1)
            with pytest.raises(RuntimeError,
                               match="worker late not ready within 0.3s"):
                cluster.add_worker(late, ready_timeout=0.3)
            assert "late" in cluster.down_workers
            assert not cluster.is_alive("late")
            # The fleet that was running is untouched.
            assert cluster.live_workers() == ["w0"]
            request_id = cluster.next_request_id()
            assert cluster.submit("w0", request_id, X)
            (worker_id, reply), = cluster.poll(10.0)
            assert worker_id == "w0"
            assert wire.request_id(reply) == request_id
            np.testing.assert_allclose(wire.payload(reply),
                                       local_features(model, X), atol=1e-5)


# ----------------------------------------------------------------------
class ThreadProcess:
    """A ``Process`` look-alike over a thread that waits, then runs the
    real child entry: dial back, authenticate, greet, boot."""

    pid = 0

    def __init__(self, delay_s, target, kwargs):
        self._terminated = threading.Event()

        def run():
            if self._terminated.wait(delay_s):
                return
            try:
                target(**kwargs)
            except (EOFError, OSError):
                pass                   # the launch was torn down meanwhile

        self._thread = threading.Thread(
            target=run, daemon=True,
            name=f"edge-worker-{kwargs['worker_id']}")

    def start(self):
        self._thread.start()

    def is_alive(self):
        return self._thread.is_alive()

    def terminate(self):
        # A thread cannot be killed: one that has dialled ends when its
        # connection (or the listener it queued on) is closed.
        self._terminated.set()

    def join(self, timeout=None):
        self._thread.join(0.05)


class DelayedDialBack:
    """Stands in for a ``TcpTransport``'s process class, so a test chooses
    the order in which the children's connections arrive."""

    def __init__(self, delays_s):
        self._delays_s = delays_s

    def Process(self, target, kwargs, daemon):
        return ThreadProcess(self._delays_s[kwargs["worker_id"]], target,
                             kwargs)


def tcp_with_dial_back_delays(delays_s):
    transport = TcpTransport(accept_timeout_s=10.0)
    transport._process_class = \
        lambda worker_main: DelayedDialBack(delays_s).Process
    return transport


def greet_as(transport, worker_id, delay_s, seen):
    """A connection that knows the authkey and greets as ``worker_id``;
    records whether the parent hung up on it."""
    def run():
        time.sleep(delay_s)
        conn = mp_connection.Client(transport.address,
                                    authkey=transport._authkey)
        conn.send(wire.hello_message(worker_id))
        try:
            conn.recv()
            seen.append("answered")
        except (EOFError, OSError):
            seen.append("hung up on")
        finally:
            conn.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread


class TestTcpConnectionsBelongToTheirGreeting:
    def test_dial_backs_in_reverse_order(self):
        specs_models = [make_worker(f"w{i}", seed=i) for i in range(3)]
        transport = tcp_with_dial_back_delays(
            {"w0": 0.4, "w1": 0.2, "w2": 0.0})
        cluster = EdgeCluster([spec for spec, _ in specs_models],
                              transport=transport)
        with cluster:
            assert [h.worker_id for h in cluster._handles.values()] \
                == ["w0", "w1", "w2"]
            assert_each_worker_serves_its_own_model(
                cluster, {spec.worker_id: model
                          for spec, model in specs_models})
        assert_nothing_left_behind(transport)

    def test_two_threads_adding_workers_at_once(self):
        base, base_model = make_worker("base")
        added = {f"late{i}": make_worker(f"late{i}", seed=10 + i)
                 for i in range(2)}
        errors = []

        def add(spec):
            try:
                cluster.add_worker(spec)
            except Exception as exc:   # surfaced below
                errors.append(exc)

        with EdgeCluster([base], transport="tcp") as cluster:
            threads = [threading.Thread(target=add, args=(spec,))
                       for spec, _ in added.values()]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
                assert not thread.is_alive()
            assert errors == []
            models = {"base": base_model,
                      **{wid: model for wid, (_, model) in added.items()}}
            assert_each_worker_serves_its_own_model(cluster, models)
        assert_nothing_left_behind(cluster.transport)

    @pytest.mark.parametrize("greeting, delay_s", [
        ("nobody", 0.0),               # an id this launch never started
        ("w0", 0.3),                   # an id whose worker is connected
    ])
    def test_stranger_is_hung_up_on_and_fails_the_launch(self, greeting,
                                                         delay_s):
        specs_models = [make_worker(f"w{i}", seed=i) for i in range(2)]
        transport = tcp_with_dial_back_delays({"w0": 0.0, "w1": 1.0})
        transport._ensure_listener()   # so the stranger has an address
        cluster = EdgeCluster([spec for spec, _ in specs_models],
                              transport=transport)
        seen = []
        stranger = greet_as(transport, greeting, delay_s, seen)
        with pytest.raises(RuntimeError,
                           match=f"greeted as '{greeting}'"):
            cluster.start()
        stranger.join(timeout=5.0)
        assert seen == ["hung up on"]
        assert_nothing_left_behind(transport)

        with cluster:                  # and nothing is poisoned for later
            assert_each_worker_serves_its_own_model(
                cluster, {spec.worker_id: model
                          for spec, model in specs_models})

    def test_duplicate_ids_in_one_launch_are_refused(self):
        spec, _ = make_worker("twin")
        transport = TcpTransport()
        with pytest.raises(ValueError, match="unique"):
            transport.launch([spec, spec], mute_worker)
        transport.close()


# ----------------------------------------------------------------------
class RecordingTransport(InProcessTransport):
    def __init__(self):
        super().__init__()
        self.launched = []

    def launch(self, specs, worker_main):
        self.launched.extend(specs)
        return super().launch(specs, worker_main)


class TestNoWeightsInTheLaunch:
    def test_cluster_hands_the_transport_specs_without_weights(self):
        spec, model = make_worker("w0")
        arrays = module_arrays(model)
        assert weight_bytes(spec) > 0
        transport = RecordingTransport()
        with EdgeCluster([spec], transport=transport) as cluster:
            assert_each_worker_serves_its_own_model(cluster, {"w0": model})
            late, late_model = make_worker("late", seed=1)
            cluster.add_worker(late)
            assert_each_worker_serves_its_own_model(
                cluster, {"w0": model, "late": late_model})
        assert [s.worker_id for s in transport.launched] == ["w0", "late"]
        assert all(s.state == {} for s in transport.launched)
        # The parent keeps views of the arrays the spec was made from.
        kept = cluster.specs[0].state
        assert list(kept) == list(arrays)
        for name, array in arrays.items():
            assert np.shares_memory(kept[name], array), name

    @pytest.mark.parametrize("transport_type",
                             [MultiprocessTransport, TcpTransport])
    def test_process_arguments_are_constant_size(self, transport_type):
        """Even a caller that hands the transport a fat spec gets it
        delivered over the connection, not in ``Process(args=...)``."""
        spec, _ = make_worker("fat", embed_dim=128, depth=2)
        assert weight_bytes(spec) > 1 << 20
        transport = transport_type()
        handle = transport.spawn(spec, process_args_worker)
        try:
            assert handle.poll(30.0)
            report = handle.recv()
        finally:
            reap([handle])
            transport.close()
        assert report["worker_id"] == "fat"
        assert report["weights"] == weight_bytes(spec)
        assert report["args"] <= 64 * 1024


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads /proc/<pid>/status")
class TestWorkerHoldsItsModelOnce:
    @staticmethod
    def peak_rss_bytes(spec, transport, batch):
        """VmHWM of a worker hosting ``spec``, after one request of
        ``batch`` images."""
        x = np.zeros((batch, 3, 32, 32), dtype=np.float32)
        with EdgeCluster([spec], transport=transport) as cluster:
            cluster.infer_features(x)
            pid = cluster._handles[spec.worker_id].process.pid
            with open(f"/proc/{pid}/status", encoding="ascii") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) * 1024
        raise AssertionError("no VmHWM line")

    # Batch 8 adds the 3.5 MiB scratch arena to the peak: measured 1.55x
    # (1.79x while qkv and the MLP's hidden layer had a tag each and GELU
    # allocated a full-size temporary), bounded at 1.75x.  Batch 1
    # measures 1.2x.
    @pytest.mark.parametrize("transport, batch, bound",
                             [("multiprocess", 1, 1.6), ("tcp", 8, 1.75)])
    def test_peak_is_the_interpreter_plus_well_under_two_copies(
            self, transport, batch, bound):
        # The compute-fleet sub-model against a dim-8 model of the same
        # depth and input.
        big, _ = make_worker("big", **COMPUTE_SHAPE)
        base, _ = make_worker("base", **{**COMPUTE_SHAPE, "embed_dim": 8,
                                         "num_heads": 2})
        weights = weight_bytes(big)
        assert weights > 10 << 20
        over_base = self.peak_rss_bytes(big, transport, batch) \
            - self.peak_rss_bytes(base, transport, batch)
        # 3.0x when the blob rode in the process arguments and the loader
        # copied a whole decoded state dict.
        assert over_base <= bound * weights, over_base / weights


class TestSpecViewsTheModulesArrays:
    @pytest.mark.parametrize("kmajor", [False, True])
    def test_from_model_copies_no_weights(self, kmajor):
        _, model = make_worker("w0", **COMPUTE_SHAPE)
        if kmajor:
            model.eval()
        tracemalloc.start()
        try:
            spec = spec_for("w0", model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert weight_bytes(spec) > 10 << 20
        assert peak < 1 << 20, peak
        arrays = module_arrays(model)
        assert list(spec.state) == list(model.state_dict())
        for name, view in spec.state.items():
            assert np.shares_memory(view, arrays[name]), name
            assert not view.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            spec.state["head.bias"][0] = 1.0

    def test_streamed_state_and_derived_blob_are_the_state_dict(self):
        _, model = make_worker("w0", embed_dim=16)
        model.eval()                   # K-major weights: copied as sent
        spec = spec_for("w0", model)
        expected = model.state_dict()
        streamed = list(spec.state_items())
        assert [name for name, _ in streamed] == list(expected)
        for name, array in streamed:
            assert array.flags.c_contiguous, name
            assert array.dtype == expected[name].dtype, name
            assert np.array_equal(array, expected[name]), name
        assert spec.state_blob == nn.state_dict_to_bytes(expected)


@pytest.mark.parametrize("transport", TRANSPORTS)
@pytest.mark.parametrize("quant", ["fp32", "int8"])
def test_booted_worker_loads_the_modules_state_dict(monkeypatch, transport,
                                                    quant):
    """The module is already in eval (K-major) when its spec is made."""
    _, model = make_worker("w0", embed_dim=16)
    if quant == "int8":
        model = nn.quantize_module(model, scheme=quant)
    model.eval()
    spec = spec_for("w0", model)
    assert spec.quant == quant
    monkeypatch.setattr(runtime, "_worker_main", state_echo_worker)
    cluster = EdgeCluster([spec], transport=transport)
    handle, = cluster._boot([spec], ready_timeout=30.0)
    try:
        assert handle.poll(30.0)
        loaded = handle.recv()
    finally:
        reap([handle])
        cluster.transport.close()
    expected = model.state_dict()
    assert list(loaded) == list(expected)
    for name, array in expected.items():
        assert loaded[name].dtype == array.dtype, name
        assert np.array_equal(loaded[name], array), name


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads /proc/self/status")
def test_booting_two_compute_fleets_keeps_no_weights_in_the_host():
    """Specs and boots of two live two-worker compute fleets (43 MB of
    weights) grow the host by 0.5-0.7 MB; npz copies in the specs grew it
    by 64 MB."""
    def rss_bytes():
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
        raise AssertionError("no VmRSS line")

    fleets = [[make_worker(f"f{k}w{i}", seed=2 * k + i, **COMPUTE_SHAPE)[1]
               for i in range(2)] for k in range(2)]
    for model in fleets[0]:
        model.eval()                   # one K-major fleet, one C-order
    with EdgeCluster([make_worker("warm")[0]], transport="multiprocess"):
        pass                           # imports and first-boot costs
    before = rss_bytes()
    clusters = []
    try:
        for k, fleet in enumerate(fleets):
            specs = [spec_for(f"f{k}w{i}", model, device_id=f"d{i}")
                     for i, model in enumerate(fleet)]
            clusters.append(EdgeCluster(specs, transport="multiprocess"))
            clusters[-1].start()
        grown = rss_bytes() - before
    finally:
        for cluster in clusters:
            cluster.shutdown()
    assert grown < 2 << 20, grown / 2**20


# ----------------------------------------------------------------------
@pytest.mark.parametrize("transport", TRANSPORTS)
def test_served_labels_equal_the_in_process_reference(transport):
    system = plan_demo_system(num_workers=3, transport=transport)
    x = np.random.default_rng(5).normal(
        size=(16, *system.input_shape)).astype(np.float32)
    with system.make_server() as server:
        served = server.infer(x)
    np.testing.assert_array_equal(
        served, fused_labels(system.models, system.fusion, x))
