"""Content-addressed model artifact store.

The fleet pays for sub-model (and fusion) training once; every later
boot of the same plan should be a checkpoint load, not a retrain.  The
store makes that safe by keying each artifact on a **digest of its
rebuild recipe** — the model kind, the exact config dict, the
head-pruning number, the class group, the seed, and the training
settings.  Two plans that would deterministically rebuild the same
weights therefore share one artifact; any change to the recipe changes
the key.

On-disk layout (all JSON/npz, no pickles)::

    <root>/manifest.json               # digest -> ArtifactInfo metadata
    <root>/objects/<digest>.npz        # the checkpoint (state dict + config)

Every load re-hashes the object file and compares against the SHA-256
recorded at ``put`` time, so a corrupted or tampered artifact raises
:class:`ArtifactCorrupt` instead of silently serving garbage weights.
``get`` also bumps the artifact's ``last_used_at``, which drives the
LRU :meth:`ArtifactStore.gc` policy (bound the store by bytes and/or
artifact count; least-recently-used artifacts are evicted first).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import time
from pathlib import Path

import numpy as np

from ..nn.modules import Module
from ..nn.serialization import load_checkpoint, save_checkpoint
from ..obs.metrics import get_registry
from ..obs.trace import span

MANIFEST_NAME = "manifest.json"
OBJECTS_DIR = "objects"
MANIFEST_FORMAT_VERSION = 1


class ArtifactError(RuntimeError):
    """Base class for artifact-store failures."""


class ArtifactMissing(ArtifactError, KeyError):
    """The requested digest is not in the store."""

    def __init__(self, digest: str):
        super().__init__(f"artifact {digest!r} is not in the store")
        self.digest = digest


class ArtifactCorrupt(ArtifactError):
    """An artifact's bytes no longer match its recorded content hash."""

    def __init__(self, digest: str, detail: str):
        super().__init__(f"artifact {digest!r} failed integrity "
                         f"verification: {detail}")
        self.digest = digest


def submodel_recipe(kind: str, config: dict, hp: int | None,
                    classes, seed: int, train: dict,
                    quant: str = "fp32") -> dict:
    """The canonical rebuild-recipe shape for one sub-model.

    Called by :meth:`repro.planning.DeploymentPlan.submodel_recipe`;
    the digest schema lives here, beside the store it keys — a silent
    schema drift would turn every warm boot into a full retrain.

    ``quant`` names a post-training weight-quantization scheme (see
    :mod:`repro.nn.quantize`); a non-``"fp32"`` value extends the recipe
    so quantized variants get their own digest and dedup independently.
    The key is *omitted* entirely for ``"fp32"`` so every digest minted
    before quantization existed stays valid.
    """
    recipe = {"kind": str(kind),
              "config": dict(config),
              "hp": None if hp is None else int(hp),
              "classes": [int(c) for c in classes],
              "seed": int(seed),
              "train": dict(train)}
    if quant != "fp32":
        recipe["quant"] = str(quant)
    return recipe


def fusion_recipe(config: dict, seed: int, train: dict,
                  submodels: list[dict]) -> dict:
    """The canonical rebuild recipe of a fusion MLP.

    Embeds every sub-model recipe: fusion trains on the concatenated
    features of all sub-models, so retraining any of them invalidates
    the fusion artifact with it.
    """
    return {"kind": "fusion",
            "config": dict(config),
            "seed": int(seed),
            "train": dict(train),
            "submodels": list(submodels)}


def warm_load(store: "ArtifactStore", digests: dict[str, str],
              modules: dict[str, Module]) -> bool:
    """Checkpoint-load every module from its artifact; the warm boot.

    ``digests`` and ``modules`` share keys.  Returns ``False`` without
    touching any module when *any* artifact is missing (callers fall
    back to the cold rebuild); a present-but-corrupt artifact raises
    :class:`ArtifactCorrupt` instead of silently retraining.
    """
    if not all(store.has(digest) for digest in digests.values()):
        return False
    for name, module in modules.items():
        state, _ = store.get(digests[name])
        module.load_state_dict(state)
    return True


def recipe_digest(recipe: dict) -> str:
    """SHA-256 over the canonical JSON encoding of a rebuild recipe.

    Canonical means sorted keys and no whitespace, so dict insertion
    order never changes the key.  Raises ``TypeError`` for recipes that
    are not pure JSON (the store must be able to show an operator exactly
    what a digest stands for).
    """
    canonical = json.dumps(recipe, sort_keys=True, separators=(",", ":"),
                           allow_nan=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclasses.dataclass
class ArtifactInfo:
    """Manifest metadata for one stored artifact."""

    digest: str                        # recipe digest (the store key)
    kind: str                          # model kind ("vit", ..., "fusion")
    nbytes: int                        # size of the object file
    content_sha256: str                # hash of the object file bytes
    created_at: float                  # unix seconds
    last_used_at: float                # unix seconds; bumped on get()
    meta: dict = dataclasses.field(default_factory=dict)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(data: dict) -> "ArtifactInfo":
        return ArtifactInfo(digest=str(data["digest"]),
                            kind=str(data["kind"]),
                            nbytes=int(data["nbytes"]),
                            content_sha256=str(data["content_sha256"]),
                            created_at=float(data["created_at"]),
                            last_used_at=float(data["last_used_at"]),
                            meta=dict(data.get("meta", {})))


class ArtifactStore:
    """A directory of integrity-checked, recipe-addressed checkpoints."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.objects = self.root / OBJECTS_DIR
        self.objects.mkdir(parents=True, exist_ok=True)
        self._manifest_path = self.root / MANIFEST_NAME
        self._artifacts: dict[str, ArtifactInfo] = {}
        self._load_manifest()
        registry = get_registry()
        self._m_hits = registry.counter("store.hits_total")
        self._m_misses = registry.counter("store.misses_total")
        self._m_evicted = registry.counter("store.gc_evicted_total")
        self._m_get_s = registry.histogram("store.get_seconds")
        self._m_put_s = registry.histogram("store.put_seconds")

    # -- manifest ------------------------------------------------------
    def _load_manifest(self) -> None:
        if not self._manifest_path.exists():
            return
        data = json.loads(self._manifest_path.read_text())
        version = data.get("format_version")
        if version != MANIFEST_FORMAT_VERSION:
            raise ArtifactError(
                f"unsupported manifest format_version {version!r}")
        self._artifacts = {digest: ArtifactInfo.from_dict(info)
                           for digest, info in data["artifacts"].items()}

    def _save_manifest(self) -> None:
        payload = {"format_version": MANIFEST_FORMAT_VERSION,
                   "artifacts": {digest: info.to_dict()
                                 for digest, info in self._artifacts.items()}}
        # Atomic replace: a crash mid-write must not leave a truncated
        # manifest that orphans every object in the store.
        fd, tmp = tempfile.mkstemp(dir=self.root, prefix=".manifest-",
                                   suffix=".json")
        try:
            with os.fdopen(fd, "w") as handle:
                # allow_nan=False: float timestamps/sizes must serialize
                # as valid JSON or fail loudly before the atomic replace.
                json.dump(payload, handle, indent=2, allow_nan=False)
            os.replace(tmp, self._manifest_path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- introspection -------------------------------------------------
    def object_path(self, digest: str) -> Path:
        return self.objects / f"{digest}.npz"

    def __len__(self) -> int:
        return len(self._artifacts)

    def __contains__(self, digest: str) -> bool:
        return self.has(digest)

    def has(self, digest: str) -> bool:
        present = digest in self._artifacts \
            and self.object_path(digest).exists()
        if not present:
            # Every miss here is a cold rebuild decision (warm_load probes
            # via has()), which is exactly the cache-efficiency signal.
            self._m_misses.inc()
        return present

    def info(self, digest: str) -> ArtifactInfo:
        try:
            return self._artifacts[digest]
        except KeyError:
            raise ArtifactMissing(digest) from None

    def ls(self) -> list[ArtifactInfo]:
        """All artifacts, most recently used first."""
        return sorted(self._artifacts.values(),
                      key=lambda info: (-info.last_used_at, info.digest))

    @property
    def total_bytes(self) -> int:
        return sum(info.nbytes for info in self._artifacts.values())

    # -- write path ----------------------------------------------------
    def put(self, digest: str, model: Module, config: dict | None = None,
            kind: str = "model", meta: dict | None = None) -> ArtifactInfo:
        """Store ``model``'s checkpoint under ``digest``.  Idempotent.

        ``config`` rides inside the checkpoint (the standard
        :func:`repro.nn.serialization.save_checkpoint` blob) so the
        artifact alone suffices to rebuild the module; ``meta`` is
        free-form JSON shown by ``ls`` (e.g. the full rebuild recipe).
        """
        t0 = time.perf_counter()
        with span("store.put", digest=digest[:12], kind=kind):
            path = save_checkpoint(model, self.object_path(digest),
                                   config=config)
            now = time.time()
            self._artifacts[digest] = ArtifactInfo(
                digest=digest, kind=kind, nbytes=path.stat().st_size,
                content_sha256=_file_sha256(path), created_at=now,
                last_used_at=now, meta=dict(meta or {}))
            self._save_manifest()
        self._m_put_s.observe(time.perf_counter() - t0)
        return self._artifacts[digest]

    def remove(self, digest: str) -> None:
        self._artifacts.pop(digest, None)
        try:
            self.object_path(digest).unlink()
        except FileNotFoundError:
            pass
        self._save_manifest()

    # -- read path -----------------------------------------------------
    def verify(self, digest: str) -> ArtifactInfo:
        """Integrity-check one artifact; raises on missing/corrupt."""
        info = self.info(digest)
        path = self.object_path(digest)
        if not path.exists():
            raise ArtifactCorrupt(digest, "object file is missing")
        actual = _file_sha256(path)
        if actual != info.content_sha256:
            raise ArtifactCorrupt(
                digest, f"content hash {actual[:12]}… does not match the "
                f"manifest's {info.content_sha256[:12]}…")
        return info

    def get(self, digest: str) -> tuple[dict[str, np.ndarray], dict | None]:
        """Verified load: returns ``(state_dict, config)``.

        Always re-hashes the object file first (:class:`ArtifactCorrupt`
        on mismatch) and bumps the artifact's LRU timestamp.  The bump
        is best-effort: a read-only store (shared CI cache, read-only
        serving volume) must still warm-boot, so a failed manifest write
        only costs LRU freshness, never the load.
        """
        t0 = time.perf_counter()
        with span("store.get", digest=digest[:12]):
            info = self.verify(digest)
            state, config = load_checkpoint(self.object_path(digest))
            info.last_used_at = time.time()
            try:
                self._save_manifest()
            except OSError:
                pass                   # read-only store: skip the LRU bump
        self._m_hits.inc()
        self._m_get_s.observe(time.perf_counter() - t0)
        return state, config

    # -- retention -----------------------------------------------------
    def gc(self, max_bytes: int | None = None,
           max_artifacts: int | None = None,
           keep: set[str] | frozenset[str] = frozenset()) -> list[str]:
        """Evict least-recently-used artifacts until within the bounds.

        ``keep`` pins digests (e.g. those referenced by a live plan) so
        retention never breaks a deployed fleet's warm boot.  Returns the
        evicted digests, oldest first.
        """
        evicted: list[str] = []
        with span("store.gc") as gc_span:
            # Oldest-used first; pinned digests are never candidates.
            candidates = [info.digest for info in reversed(self.ls())
                          if info.digest not in keep]

            def over_budget() -> bool:
                if max_artifacts is not None and len(self) > max_artifacts:
                    return True
                if max_bytes is not None and self.total_bytes > max_bytes:
                    return True
                return False

            for digest in candidates:
                if not over_budget():
                    break
                self._artifacts.pop(digest, None)
                try:
                    self.object_path(digest).unlink()
                except FileNotFoundError:
                    pass
                evicted.append(digest)
            if evicted:
                self._save_manifest()
                self._m_evicted.inc(len(evicted))
            gc_span.set("evicted", len(evicted))
        return evicted
