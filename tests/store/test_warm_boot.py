"""Warm boot end to end: plan → store → checkpoint-load, no retraining."""

import numpy as np
import pytest

from repro.edge.runtime import MODEL_KINDS
from repro.planning import (
    FUSION_ARTIFACT,
    DeploymentPlan,
    PlannedSystem,
    plan_artifact_digests,
    plan_demo_system,
)
from repro.store import ArtifactCorrupt, ArtifactStore


@pytest.fixture(scope="module")
def populated(tmp_path_factory):
    """One trained plan + the store its cold boot populated."""
    store = ArtifactStore(tmp_path_factory.mktemp("artifacts"))
    system = plan_demo_system(num_workers=2, seed=0, train_fusion=True,
                              fusion_epochs=2, store=store)
    return system, store


# A replan or re-score may change these without invalidating artifacts.
DIGEST_EXCLUDED_KEYS = {"codec", "mapping", "scoring"}


def recipe_problems(value, path="recipe"):
    """What in a recipe is not plain JSON or names a digest-excluded knob.

    Plain means exactly ``str``/``int``/``float``/``bool``/``None`` leaves:
    a numpy scalar may encode today and drift (or raise) tomorrow."""
    problems = []
    if isinstance(value, dict):
        for key, item in value.items():
            if type(key) is not str or key in DIGEST_EXCLUDED_KEYS:
                problems.append(f"{path}: key {key!r}")
            problems += recipe_problems(item, f"{path}.{key}")
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            problems += recipe_problems(item, f"{path}[{index}]")
    elif type(value) not in (str, int, float, bool, type(None)):
        problems.append(f"{path}: {type(value).__name__}")
    return problems


def eval_xy(system):
    dataset = system.eval_dataset()
    return dataset.x_test.astype(np.float32), np.asarray(dataset.y_test)


class TestPlanArtifacts:
    def test_cold_boot_populates_store(self, populated):
        system, store = populated
        assert not system.warm_booted
        assert len(store) == len(system.plan.submodels) + 1
        for digest in system.plan.artifacts.values():
            assert store.has(digest)

    def test_refs_cover_every_submodel_and_fusion(self, populated):
        system, _ = populated
        expected = set(system.plan.model_ids) | {FUSION_ARTIFACT}
        assert set(system.plan.artifacts) == expected

    def test_refs_survive_json_roundtrip(self, populated):
        system, _ = populated
        rebuilt = DeploymentPlan.from_json(system.plan.to_json())
        assert rebuilt.artifacts == system.plan.artifacts

    def test_recipes_match_recorded_refs(self, populated):
        system, _ = populated
        assert plan_artifact_digests(system.plan) == system.plan.artifacts

    def test_codec_and_scoring_do_not_change_digests(self, populated):
        system, _ = populated
        plan = DeploymentPlan.from_json(system.plan.to_json())
        plan.codec = "q8"
        plan.build["scoring"] = {"des_samples": 99}
        assert plan_artifact_digests(plan) == system.plan.artifacts


class TestRecipeSchema:
    @pytest.mark.parametrize("quant", ["fp32", "int8"])
    @pytest.mark.parametrize("kind", sorted(MODEL_KINDS))
    def test_recipes_are_plain_json_without_excluded_keys(self, kind,
                                                          quant):
        plan = plan_demo_system(num_workers=2, model_kind=kind, quant=quant,
                                transport="inprocess").plan
        recipes = plan.artifact_recipes()
        assert set(recipes) == set(plan.model_ids) | {FUSION_ARTIFACT}
        assert {recipes[m].get("quant", "fp32") for m in plan.model_ids} \
            == {quant}
        assert recipe_problems(recipes) == []

    def test_the_check_sees_numpy_scalars_and_excluded_keys(self):
        recipe = {"seed": np.int64(1), "hp": np.float64(0.5),
                  "train": {"codec": "q8", "epochs": 2},
                  "classes": [1, np.bool_(True)]}
        assert [p.partition(":")[0] for p in recipe_problems(recipe)] == [
            "recipe.seed", "recipe.hp", "recipe.train", "recipe.classes[1]"]


class TestWarmBoot:
    def test_from_plan_warm_boots_without_training(self, populated,
                                                   monkeypatch):
        system, store = populated
        # Any attempt to train during a warm boot is the regression the
        # store exists to prevent — make it explode.
        monkeypatch.setattr("repro.planning.execute.train_demo_system",
                            lambda *a, **k: pytest.fail(
                                "warm boot must not retrain"))
        plan = DeploymentPlan.from_json(system.plan.to_json())
        warm = PlannedSystem.from_plan(plan, store=store)
        assert warm.warm_booted

    def test_warm_accuracy_matches_cold_exactly(self, populated):
        system, store = populated
        plan = DeploymentPlan.from_json(system.plan.to_json())
        warm = PlannedSystem.from_plan(plan, store=store)
        x, y = eval_xy(system)
        assert warm.local_accuracy(x, y) == system.local_accuracy(x, y)
        np.testing.assert_array_equal(warm.local_fused_labels(x),
                                      system.local_fused_labels(x))
        # The worker specs stream the warm-loaded weights too.
        for spec_w, spec_c in zip(warm.make_cluster().specs,
                                  system.make_cluster().specs):
            warm_items = list(spec_w.state_items())
            cold_items = list(spec_c.state_items())
            assert [n for n, _ in warm_items] == [n for n, _ in cold_items]
            for (name, a), (_, b) in zip(warm_items, cold_items):
                assert a.dtype == b.dtype and np.array_equal(a, b), name

    def test_missing_artifact_falls_back_to_cold(self, populated, tmp_path):
        system, store = populated
        plan = DeploymentPlan.from_json(system.plan.to_json())
        empty = ArtifactStore(tmp_path / "empty")
        rebuilt = PlannedSystem.from_plan(plan, store=empty)
        assert not rebuilt.warm_booted
        # ... and the fallback populated the new store for next time.
        assert len(empty) == len(plan.submodels) + 1
        x, y = eval_xy(system)
        assert rebuilt.local_accuracy(x, y) == system.local_accuracy(x, y)

    def test_corrupt_artifact_raises_not_retrains(self, populated, tmp_path):
        system, store = populated
        plan = DeploymentPlan.from_json(system.plan.to_json())
        bad = ArtifactStore(tmp_path / "bad")
        PlannedSystem.from_plan(DeploymentPlan.from_json(system.plan.to_json()),
                                store=bad)
        digest = plan.artifacts[plan.model_ids[0]]
        victim = bad.object_path(digest)
        raw = bytearray(victim.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        victim.write_bytes(bytes(raw))
        with pytest.raises(ArtifactCorrupt):
            PlannedSystem.from_plan(plan, store=bad)
        # Removing the corrupt artifact heals the store: the next boot
        # rebuilds that module cold and writes it back intact.
        bad.remove(digest)
        healed = PlannedSystem.from_plan(plan, store=bad)
        assert not healed.warm_booted
        bad.verify(digest)

    def test_plan_demo_system_warm_boots(self, populated):
        system, store = populated
        again = plan_demo_system(num_workers=2, seed=0, train_fusion=True,
                                 fusion_epochs=2, store=store)
        assert again.warm_booted
        x, y = eval_xy(system)
        assert again.local_accuracy(x, y) == system.local_accuracy(x, y)

    # The populated store was trained at seed 0 for 2 epochs; another
    # seed or more epochs means different weights, so a different digest.
    @pytest.mark.parametrize("seed, fusion_epochs", [(7, 2), (0, 3)])
    def test_different_seed_misses_store(self, populated, seed,
                                         fusion_epochs):
        _, store = populated
        other = plan_demo_system(num_workers=2, seed=seed, train_fusion=True,
                                 fusion_epochs=fusion_epochs, store=store)
        assert not other.warm_booted
