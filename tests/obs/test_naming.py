"""Every metric and span name the running system registers fits the
naming grammar.

Metrics are ``subsystem.thing`` (lowercase dot.case, two segments or
more) with the unit in the name: counters end ``_total``, histograms
``_seconds`` or ``_bytes``.  Spans are dot.case and may be one segment
(the root ``request``).  The names are read at runtime, after traced
serving on every transport, a cold build into a store and one profiled
forward, so names built from variables are checked too.
"""

import re

import numpy as np
import pytest

from repro import nn
from repro.core.inference import predict
from repro.obs import (
    MetricsRegistry,
    ProfilingBackend,
    disable_tracing,
    enable_tracing,
    get_tracer,
    metrics,
)
from repro.planning import plan_demo_system
from repro.store import ArtifactStore

SEGMENT = r"[a-z][a-z0-9_]*"
METRIC_NAME = re.compile(rf"{SEGMENT}(\.{SEGMENT})+")
SPAN_NAME = re.compile(rf"{SEGMENT}(\.{SEGMENT})*")
UNIT_SUFFIXES = {"counter": ("_total",), "histogram": ("_seconds", "_bytes"),
                 "gauge": ("",)}

# A count of samples per batch, neither seconds nor bytes; it was named
# before the unit-suffix rule and its series keep their name.
NAMES_ALLOWED = {"serving.batch_samples"}


def misnamed_metric(kind, name):
    return name not in NAMES_ALLOWED and not (
        METRIC_NAME.fullmatch(name) and name.endswith(UNIT_SUFFIXES[kind]))


@pytest.mark.parametrize("kind, name, ok", [
    ("counter", "serving.requests_total", True),
    ("counter", "kernel.matmul_bytes_total", True),
    ("histogram", "store.get_seconds", True),
    ("gauge", "edge.inflight", True),
    ("counter", "requests_total", False),        # one segment
    ("counter", "serving.requests", False),      # no _total
    ("histogram", "serving.occupancy", False),   # no unit
    ("gauge", "Edge.inflight", False),           # not lowercase
])
def test_metric_grammar(kind, name, ok):
    assert misnamed_metric(kind, name) is not ok


@pytest.mark.parametrize("name, ok", [
    ("request", True), ("batch.scatter", True),
    ("Batch-Serve", False), ("batch..serve", False)])
def test_span_grammar(name, ok):
    assert bool(SPAN_NAME.fullmatch(name)) is ok


@pytest.fixture
def registry(monkeypatch):
    """A fresh process registry, so only this test's names are read;
    tracing is off again afterwards."""
    fresh = MetricsRegistry()
    monkeypatch.setattr(metrics, "_registry", fresh)
    yield fresh
    disable_tracing()


@pytest.mark.parametrize("transport", ["inprocess", "multiprocess", "tcp"])
def test_runtime_names_fit_the_grammar(registry, transport, tmp_path):
    system = plan_demo_system(num_workers=2, transport=transport,
                              store=ArtifactStore(tmp_path))
    x = np.random.default_rng(0).normal(
        size=(2, *system.input_shape)).astype(np.float32)
    enable_tracing()
    with system.make_server() as server:
        for _ in range(3):
            server.infer(x)
    with nn.use_backend(ProfilingBackend()):
        predict(system.models[0], x)

    snapshot = registry.snapshot()
    names = {key.partition("{")[0]: snap["type"]
             for key, snap in snapshot.items()}
    # The run reached every subsystem that registers metrics.
    assert {"serving.requests_total", "serving.batch_samples",
            "edge.dispatch_total", "wire.bytes_out_total",
            "store.put_seconds", "kernel.matmul_seconds",
            "kernel.matmul_bytes_total"} <= set(names)
    assert [f"{kind} {name}" for name, kind in names.items()
            if misnamed_metric(kind, name)] == []

    spans = {s.name for s in get_tracer().spans()}
    assert {"request", "batch.scatter", "worker.forward",
            "link.transfer"} <= spans
    assert [name for name in spans if not SPAN_NAME.fullmatch(name)] == []
