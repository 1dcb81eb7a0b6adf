"""Model artifact store: train once, warm-boot everywhere.

:class:`ArtifactStore` is a content-addressed checkpoint directory keyed
by :func:`recipe_digest` — a SHA-256 over a sub-model's deterministic
rebuild recipe (model kind, config, head-pruning number, class group,
seed, training settings).  The planning layer records per-sub-model
artifact refs in every :class:`repro.planning.DeploymentPlan`, and
:meth:`repro.planning.PlannedSystem.from_plan` checks the store before
falling back to the deterministic (and expensive) rebuild-and-retrain
path.
Integrity is verified on every load; an LRU ``gc`` bounds disk usage.
"""

from .store import (
    ArtifactCorrupt,
    ArtifactError,
    ArtifactInfo,
    ArtifactMissing,
    ArtifactStore,
    fusion_recipe,
    recipe_digest,
    submodel_recipe,
)

__all__ = [
    "ArtifactCorrupt",
    "ArtifactError",
    "ArtifactInfo",
    "ArtifactMissing",
    "ArtifactStore",
    "fusion_recipe",
    "recipe_digest",
    "submodel_recipe",
]
