"""Artifact-store observability: hit/miss/eviction metrics and spans."""

import numpy as np
import pytest

from repro import nn
from repro.obs import disable_tracing, enable_tracing, get_registry, get_tracer
from repro.store import (
    ArtifactCorrupt,
    ArtifactMissing,
    ArtifactStore,
    recipe_digest,
)


@pytest.fixture(autouse=True)
def _tracing_off():
    disable_tracing()
    yield
    disable_tracing()


def small_model(seed: int = 0) -> nn.Module:
    rng = np.random.default_rng(seed)
    return nn.Sequential(nn.Linear(4, 8, rng=rng), nn.Linear(8, 3, rng=rng))


def counter_value(name):
    return get_registry().counter(name).value


class TestStoreMetrics:
    def test_miss_then_hit(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digest = recipe_digest({"seed": 0})
        misses = counter_value("store.misses_total")
        hits = counter_value("store.hits_total")
        assert not store.has(digest)
        assert counter_value("store.misses_total") == misses + 1
        store.put(digest, small_model())
        assert store.has(digest)       # present: not a miss
        assert counter_value("store.misses_total") == misses + 1
        store.get(digest)
        assert counter_value("store.hits_total") == hits + 1

    def test_latency_histograms_fill(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digest = recipe_digest({"seed": 1})
        puts = get_registry().histogram("store.put_seconds").count
        gets = get_registry().histogram("store.get_seconds").count
        store.put(digest, small_model())
        store.get(digest)
        assert get_registry().histogram("store.put_seconds").count == \
            puts + 1
        assert get_registry().histogram("store.get_seconds").count == \
            gets + 1

    def test_gc_eviction_counter(self, tmp_path):
        store = ArtifactStore(tmp_path)
        for seed in range(3):
            store.put(recipe_digest({"seed": seed}), small_model(seed))
        evicted_before = counter_value("store.gc_evicted_total")
        evicted = store.gc(max_artifacts=1)
        assert len(evicted) == 2
        assert counter_value("store.gc_evicted_total") == \
            evicted_before + 2


class TestStoreSpans:
    def test_put_get_gc_emit_spans(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digest = recipe_digest({"seed": 0})
        enable_tracing()
        store.put(digest, small_model(), kind="mlp")
        store.get(digest)
        store.gc(max_artifacts=0)
        names = [s.name for s in get_tracer().spans()]
        assert names == ["store.put", "store.get", "store.gc"]
        put, get, gc = get_tracer().spans()
        assert put.attrs["digest"] == digest[:12]
        assert put.attrs["kind"] == "mlp"
        assert gc.attrs["evicted"] == 1

    def test_no_spans_when_disabled(self, tmp_path):
        store = ArtifactStore(tmp_path)
        enable_tracing()
        get_tracer().clear()
        disable_tracing()
        store.put(recipe_digest({"seed": 0}), small_model())
        assert len(get_tracer()) == 0

    def test_get_span_is_the_histograms_measurement(self, tmp_path):
        """One clock: the span's duration is the interval the
        ``store.get_seconds`` histogram observed, not a second timing."""
        store = ArtifactStore(tmp_path)
        digest = recipe_digest({"seed": 0})
        store.put(digest, small_model())
        histogram = get_registry().histogram("store.get_seconds")
        enable_tracing()
        before = histogram.sum
        store.get(digest)
        (span,) = get_tracer().spans()
        assert span.name == "store.get"
        assert span.duration_s == pytest.approx(histogram.sum - before,
                                                rel=0, abs=1e-12)

    def test_corrupt_get_records_its_span_and_raises(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digest = recipe_digest({"seed": 0})
        store.put(digest, small_model())
        store.object_path(digest).write_bytes(b"not a checkpoint")
        enable_tracing()
        with pytest.raises(ArtifactCorrupt):
            store.get(digest)
        (span,) = get_tracer().spans()
        assert span.name == "store.get"
        assert span.attrs["digest"] == digest[:12]
        assert span.attrs["error"].startswith("ArtifactCorrupt")

    def test_put_span_is_the_histograms_measurement(self, tmp_path):
        store = ArtifactStore(tmp_path)
        histogram = get_registry().histogram("store.put_seconds")
        enable_tracing()
        before = histogram.sum
        store.put(recipe_digest({"seed": 0}), small_model())
        (span,) = get_tracer().spans()
        assert span.name == "store.put"
        assert span.duration_s == pytest.approx(histogram.sum - before,
                                                rel=0, abs=1e-12)

    def test_missing_get_records_its_span_and_observes_nothing(self,
                                                               tmp_path):
        store = ArtifactStore(tmp_path)
        digest = recipe_digest({"seed": 1})
        histogram = get_registry().histogram("store.get_seconds")
        count_before = histogram.count
        enable_tracing()
        with pytest.raises(ArtifactMissing):
            store.get(digest)
        (span,) = get_tracer().spans()
        assert span.name == "store.get"
        assert span.attrs["error"].startswith("ArtifactMissing")
        assert histogram.count == count_before

    def test_failed_put_records_its_span_and_raises(self, tmp_path,
                                                    monkeypatch):
        import repro.store.store as store_module

        def refuse(*args, **kwargs):
            raise OSError("disk full")

        store = ArtifactStore(tmp_path)
        monkeypatch.setattr(store_module, "save_checkpoint", refuse)
        enable_tracing()
        with pytest.raises(OSError, match="disk full"):
            store.put(recipe_digest({"seed": 0}), small_model(), kind="mlp")
        (span,) = get_tracer().spans()
        assert span.name == "store.put"
        assert span.attrs == {"digest": recipe_digest({"seed": 0})[:12],
                              "kind": "mlp", "error": "OSError: disk full"}
        assert len(store) == 0
