"""Artifact-store unit tests: digests, integrity, LRU retention."""

import json
import time

import numpy as np
import pytest

from repro import nn
from repro.store import (
    ArtifactCorrupt,
    ArtifactMissing,
    ArtifactStore,
    recipe_digest,
)


def small_model(seed: int = 0) -> nn.Module:
    rng = np.random.default_rng(seed)
    return nn.Sequential(nn.Linear(4, 8, rng=rng), nn.ReLU(),
                         nn.Linear(8, 3, rng=rng))


class TestRecipeDigest:
    def test_deterministic(self):
        recipe = {"kind": "vit", "seed": 3, "config": {"embed_dim": 8}}
        assert recipe_digest(recipe) == recipe_digest(dict(recipe))

    def test_key_order_irrelevant(self):
        a = {"kind": "vit", "seed": 3}
        b = {"seed": 3, "kind": "vit"}
        assert recipe_digest(a) == recipe_digest(b)

    def test_any_field_changes_digest(self):
        base = {"kind": "vit", "seed": 3, "hp": 0, "classes": [0, 1],
                "config": {"embed_dim": 8}, "train": {"epochs": 2}}
        for key, value in (("kind", "vgg"), ("seed", 4), ("hp", 1),
                           ("classes", [0, 2]),
                           ("config", {"embed_dim": 16}),
                           ("train", {"epochs": 3})):
            changed = dict(base)
            changed[key] = value
            assert recipe_digest(changed) != recipe_digest(base), key

    def test_rejects_non_json(self):
        with pytest.raises(TypeError):
            recipe_digest({"config": np.float32(1.0)})


class TestPutGet:
    def test_roundtrip_with_config(self, tmp_path):
        store = ArtifactStore(tmp_path)
        model = small_model()
        digest = recipe_digest({"seed": 0})
        info = store.put(digest, model, config={"layers": [4, 8, 3]},
                         kind="mlp", meta={"model_id": "m0"})
        assert info.kind == "mlp" and info.nbytes > 0
        assert store.has(digest) and digest in store and len(store) == 1
        state, config = store.get(digest)
        assert config == {"layers": [4, 8, 3]}
        clone = small_model(seed=1)
        clone.load_state_dict(state)
        x = np.random.default_rng(0).normal(size=(2, 4)).astype(np.float32)
        np.testing.assert_array_equal(clone(nn.Tensor(x)).data,
                                      model(nn.Tensor(x)).data)

    def test_reopen_reads_manifest(self, tmp_path):
        digest = recipe_digest({"seed": 0})
        ArtifactStore(tmp_path).put(digest, small_model())
        reopened = ArtifactStore(tmp_path)
        assert reopened.has(digest)
        state, _ = reopened.get(digest)
        assert state

    def test_missing_raises(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(ArtifactMissing):
            store.get("0" * 64)
        assert not store.has("0" * 64)

    def test_get_returns_the_state_without_the_config(self, tmp_path):
        store = ArtifactStore(tmp_path)
        model = small_model()
        digest = recipe_digest({"seed": 0})
        store.put(digest, model, config={"layers": [4, 8, 3]})
        restored, config = store.get(digest)
        # Config sentinel must be stripped; only parameters ship.
        assert config == {"layers": [4, 8, 3]}
        assert set(restored) == set(model.state_dict())
        for key, value in model.state_dict().items():
            np.testing.assert_array_equal(restored[key], value)

    def test_put_is_idempotent(self, tmp_path):
        store = ArtifactStore(tmp_path)
        model = small_model()
        digest = recipe_digest({"seed": 0})
        store.put(digest, model)
        store.put(digest, model)
        assert len(store) == 1


class TestIntegrity:
    def test_corrupted_object_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digest = recipe_digest({"seed": 0})
        store.put(digest, small_model())
        path = store.object_path(digest)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ArtifactCorrupt):
            store.get(digest)

    def test_deleted_object_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digest = recipe_digest({"seed": 0})
        store.put(digest, small_model())
        store.object_path(digest).unlink()
        with pytest.raises(ArtifactCorrupt):
            store.verify(digest)

    def test_manifest_tamper_detected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digest = recipe_digest({"seed": 0})
        store.put(digest, small_model())
        manifest = tmp_path / "manifest.json"
        data = json.loads(manifest.read_text())
        data["artifacts"][digest]["content_sha256"] = "f" * 64
        manifest.write_text(json.dumps(data))
        with pytest.raises(ArtifactCorrupt):
            ArtifactStore(tmp_path).get(digest)


class TestRetention:
    def fill(self, store: ArtifactStore, count: int) -> list[str]:
        digests = []
        for index in range(count):
            digest = recipe_digest({"seed": index})
            store.put(digest, small_model(index))
            digests.append(digest)
        return digests

    def test_gc_noop_within_bounds(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digests = self.fill(store, 3)
        assert store.gc(max_artifacts=3) == []
        assert all(store.has(d) for d in digests)

    def test_gc_evicts_least_recently_used(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digests = self.fill(store, 3)
        # Touch the oldest so it becomes the most recently used.
        time.sleep(0.01)
        store.get(digests[0])
        evicted = store.gc(max_artifacts=2)
        assert evicted == [digests[1]]
        assert store.has(digests[0]) and store.has(digests[2])
        assert not store.has(digests[1])
        assert not store.object_path(digests[1]).exists()

    def test_gc_max_bytes(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digests = self.fill(store, 4)
        one = store.info(digests[0]).nbytes
        evicted = store.gc(max_bytes=2 * one + 1)
        assert len(store) <= 2 and len(evicted) == 2
        assert store.total_bytes <= 2 * one + 1

    def test_ls_most_recent_first(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digests = self.fill(store, 3)
        time.sleep(0.01)
        store.get(digests[0])
        assert ArtifactStore(tmp_path).ls()[0].digest == digests[0]


class TestReadOnlyStore:
    def test_get_survives_unwritable_manifest(self, tmp_path, monkeypatch):
        # A store on a read-only volume (shared CI cache) must still
        # warm-boot: the LRU bump is best-effort, never load-blocking.
        store = ArtifactStore(tmp_path)
        digest = recipe_digest({"seed": 0})
        model = small_model()
        store.put(digest, model)

        def denied(self):
            raise PermissionError("read-only store")

        monkeypatch.setattr(ArtifactStore, "_save_manifest", denied)
        state, _ = store.get(digest)
        np.testing.assert_array_equal(state["0.weight"],
                                      model.state_dict()["0.weight"])
