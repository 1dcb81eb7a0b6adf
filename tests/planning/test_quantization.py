"""Planner-selectable int8 artifacts: digests, fallback, boot, rollout."""

import dataclasses

import numpy as np
import pytest

from repro import nn
from repro.assignment import InfeasibleAssignment
from repro.edge.runtime import MODEL_KINDS, build_model
from repro.planning import (
    DeploymentPlan,
    PlannedSystem,
    execute,
    plan_demo_system,
    quantize_plan_artifacts,
)
from repro.store import ArtifactStore, recipe_digest


@pytest.fixture(scope="module")
def store(tmp_path_factory) -> ArtifactStore:
    return ArtifactStore(tmp_path_factory.mktemp("artifacts"))


@pytest.fixture(scope="module")
def fp32_system(store):
    return plan_demo_system(num_workers=2, train_fusion=True,
                            fusion_epochs=2, store=store,
                            transport="inprocess")


@pytest.fixture(scope="module")
def int8_system(store, fp32_system):
    # Tightened budget: the fp32 sub-models no longer fit, so "auto"
    # must select int8.  Same seed/recipe → same underlying training.
    return plan_demo_system(num_workers=2, train_fusion=True,
                            fusion_epochs=2, store=store,
                            transport="inprocess",
                            quant="auto", memory_headroom=0.5)


# ----------------------------------------------------------------------
# Recipes and digests
# ----------------------------------------------------------------------
def test_fp32_recipe_omits_quant_key(fp32_system):
    """Digest stability: every digest minted before quantization existed
    must stay valid, so fp32 recipes carry no quant key at all."""
    recipe = fp32_system.plan.submodel_recipe("submodel-0")
    assert "quant" not in recipe
    explicit = fp32_system.plan.submodel_recipe("submodel-0", quant="fp32")
    assert recipe_digest(explicit) == recipe_digest(recipe)


def test_int8_variant_gets_its_own_digest(fp32_system, int8_system):
    fp32 = fp32_system.plan.submodel_recipe("submodel-0")
    int8 = int8_system.plan.submodel_recipe("submodel-0")
    assert int8["quant"] == "int8"
    assert recipe_digest(fp32) != recipe_digest(int8)
    assert fp32_system.plan.artifacts["submodel-0"] \
        != int8_system.plan.artifacts["submodel-0"]


def test_fusion_artifact_is_shared_across_schemes(fp32_system, int8_system):
    """Fusion trains on fp32 features, so quantized weight variants must
    keep referencing the same fusion artifact — no orphaned retrain."""
    assert fp32_system.plan.artifacts["fusion"] \
        == int8_system.plan.artifacts["fusion"]


# ----------------------------------------------------------------------
# Planner selection
# ----------------------------------------------------------------------
def test_auto_falls_back_to_int8_under_tight_memory(int8_system):
    plan = int8_system.plan
    assert all(m.quant == "int8" for m in plan.submodels)
    selection = plan.build["quant_selection"]
    assert selection["requested"] == "auto"
    assert selection["selected"] == "int8"
    attempts = {a["quant"]: a["feasible"] for a in selection["attempts"]}
    assert attempts == {"fp32": False, "int8": True}


def test_auto_keeps_fp32_when_it_fits(store):
    system = plan_demo_system(num_workers=2, train_fusion=True,
                              fusion_epochs=2, store=store,
                              transport="inprocess", quant="auto")
    assert all(m.quant == "fp32" for m in system.plan.submodels)
    assert system.warm_booted            # same recipe as the fp32 fixture


def test_int8_sizes_shrink_the_planned_footprint(fp32_system, int8_system):
    for fp32, int8 in zip(fp32_system.plan.submodels,
                          int8_system.plan.submodels):
        assert fp32.size_bytes >= 2 * int8.size_bytes


def test_infeasible_when_even_int8_overflows():
    with pytest.raises(InfeasibleAssignment):
        plan_demo_system(num_workers=2, quant="auto",
                         memory_headroom=0.01)


def test_unknown_quant_scheme_rejected():
    with pytest.raises(ValueError, match="quant"):
        plan_demo_system(num_workers=2, quant="int4")


# ----------------------------------------------------------------------
# Artifacts, accuracy, and the serving path
# ----------------------------------------------------------------------
def test_int8_artifacts_are_at_least_2x_smaller(fp32_system, int8_system,
                                                store):
    for model_id in ("submodel-0", "submodel-1"):
        fp32_state, _ = store.get(fp32_system.plan.artifacts[model_id])
        int8_state, _ = store.get(int8_system.plan.artifacts[model_id])
        fp32_bytes = nn.state_dict_num_bytes(fp32_state)
        int8_bytes = nn.state_dict_num_bytes(int8_state)
        assert fp32_bytes >= 2 * int8_bytes, (model_id, fp32_bytes,
                                              int8_bytes)


def test_cold_int8_artifacts_equal_their_derivation_from_fp32(
        fp32_system, int8_system, store):
    """The int8 artifacts a cold int8 build stores are exactly what
    deriving them from the fp32 artifacts gives: one rewrite, one path."""
    rows = quantize_plan_artifacts(fp32_system.plan, store)
    for index, row in enumerate(rows):
        sub = fp32_system.plan.submodels[index]
        assert row["quant_digest"] \
            == int8_system.plan.artifacts[row["model_id"]]
        fp32_state, _ = store.get(row["fp32_digest"])
        model = build_model(sub.model_kind, sub.model_config,
                            np.random.default_rng(0))
        model.load_state_dict(fp32_state)
        derived = nn.quantize_module(model).state_dict()
        stored, _ = store.get(row["quant_digest"])
        assert set(stored) == set(derived)
        for key in stored:
            np.testing.assert_array_equal(stored[key], derived[key])
        assert row["quant_bytes"] == nn.state_dict_num_bytes(stored)
        assert store.info(row["quant_digest"]).meta["quant"] == "int8"


def test_planned_int8_size_is_the_stored_artifact_size(int8_system, store):
    for sub in int8_system.plan.submodels:
        state, _ = store.get(int8_system.plan.artifacts[sub.model_id])
        assert sub.size_bytes == nn.state_dict_num_bytes(state)


@pytest.mark.parametrize("kind", sorted(MODEL_KINDS))
def test_derived_int8_artifacts_warm_boot_for_every_kind(kind, tmp_path):
    """``quantize`` then an int8 boot: the derived artifacts load strict
    into freshly built quantized modules, with the rewrite's weights."""
    store = ArtifactStore(tmp_path)
    fp32 = plan_demo_system(num_workers=2, model_kind=kind, store=store,
                            transport="inprocess")
    quantize_plan_artifacts(fp32.plan, store)
    plan = DeploymentPlan.from_json(fp32.plan.to_json())
    plan.submodels = [dataclasses.replace(sub, quant="int8")
                      for sub in plan.submodels]
    plan.artifacts = {}
    int8 = PlannedSystem.from_plan(plan, transport="inprocess", store=store)
    assert int8.warm_booted
    for model, served in zip(fp32.models, int8.models):
        assert nn.is_quantized(served)
        expected = nn.quantize_module(model).state_dict()
        state = served.state_dict()
        assert set(state) == set(expected)
        for key in state:
            np.testing.assert_array_equal(state[key], expected[key])


def test_int8_accuracy_within_one_point(fp32_system, int8_system):
    fp32_acc = fp32_system.plan.prediction.accuracy
    int8_acc = int8_system.plan.prediction.accuracy
    assert abs(fp32_acc - int8_acc) <= 0.01 + 1e-9, (fp32_acc, int8_acc)


def test_int8_plan_warm_boots_from_store(store, int8_system):
    again = plan_demo_system(num_workers=2, train_fusion=True,
                             fusion_epochs=2, store=store,
                             transport="inprocess",
                             quant="auto", memory_headroom=0.5)
    assert again.warm_booted
    assert all(nn.is_quantized(m) for m in again.models)
    assert again.plan.artifacts == int8_system.plan.artifacts


def test_int8_fleet_serves_and_matches_local_reference(int8_system):
    x = np.random.default_rng(0).normal(
        size=(4, *int8_system.input_shape)).astype(np.float32)
    with int8_system.make_server() as server:
        labels = server.infer(x)
    np.testing.assert_array_equal(labels,
                                  int8_system.local_fused_labels(x))


def test_plan_json_roundtrip_and_legacy_plans(int8_system):
    plan = DeploymentPlan.from_json(int8_system.plan.to_json())
    assert [m.quant for m in plan.submodels] == ["int8", "int8"]
    legacy = int8_system.plan.to_dict()
    for sub in legacy["submodels"]:
        sub.pop("quant")                 # a pre-quantization plan file
    loaded = DeploymentPlan.from_dict(legacy)
    assert all(m.quant == "fp32" for m in loaded.submodels)


def test_quantize_plan_artifacts_derives_planned_digests(fp32_system,
                                                         int8_system,
                                                         store):
    rows = quantize_plan_artifacts(fp32_system.plan, store)
    derived = {row["model_id"]: row["quant_digest"] for row in rows}
    for model_id, digest in derived.items():
        assert digest == int8_system.plan.artifacts[model_id]
        assert store.has(digest)
    for row in rows:
        assert row["fp32_bytes"] >= 2 * row["quant_bytes"]
        state, _ = store.get(row["fp32_digest"])
        assert row["fp32_bytes"] == nn.state_dict_num_bytes(state)


def test_rolling_swap_to_int8(store):
    system = plan_demo_system(num_workers=2, train_fusion=True,
                              fusion_epochs=2, store=store,
                              transport="inprocess")
    x = np.random.default_rng(1).normal(
        size=(4, *system.input_shape)).astype(np.float32)
    server = system.make_server()
    with server:
        before = server.submit(x).result(timeout=30)
        worker_id = system.swap_from_store(server, "submodel-0", store,
                                           quant="int8")
        after = server.submit(x).result(timeout=30)
    assert worker_id.startswith("submodel-0@swap")
    assert system.plan.submodels[0].quant == "int8"
    assert system.plan.submodels[1].quant == "fp32"
    assert nn.is_quantized(system.models[0])
    # The tiny demo system's labels survive int8 quantization.
    np.testing.assert_array_equal(before, after)


def test_a_swap_derives_only_its_own_int8_artifact(tmp_path):
    store = ArtifactStore(tmp_path)
    system = plan_demo_system(num_workers=2, store=store,
                              transport="inprocess")
    with system.make_server() as server:
        system.swap_from_store(server, "submodel-0", store, quant="int8")
    int8 = [info.meta["model_id"] for info in store.ls()
            if info.meta.get("quant") == "int8"]
    assert int8 == ["submodel-0"]


def test_a_repeat_derivation_reads_no_fp32_artifact_and_quantizes_nothing(
        tmp_path, monkeypatch):
    store = ArtifactStore(tmp_path)
    system = plan_demo_system(num_workers=2, store=store,
                              transport="inprocess")
    first = quantize_plan_artifacts(system.plan, store)
    real_build, real_quantize = execute._build_submodel, nn.quantize_module

    def get(digest):
        raise AssertionError("an artifact was read")

    def build(*args, **kwargs):
        assert nn.init.is_unwritten(), "a sub-model's weights were drawn"
        return real_build(*args, **kwargs)

    def quantized(*args, **kwargs):
        assert nn.init.is_unwritten(), \
            "an existing int8 artifact was derived again"
        return real_quantize(*args, **kwargs)

    monkeypatch.setattr(store, "get", get)
    monkeypatch.setattr(execute, "_build_submodel", build)
    monkeypatch.setattr(nn, "quantize_module", quantized)
    assert quantize_plan_artifacts(system.plan, store) == first


def test_worker_spec_detects_quantized_model():
    from repro.edge.device import DeviceModel
    from repro.edge.runtime import WorkerSpec
    from repro.serving.demo import _tiny_model

    model = _tiny_model("vit", 10, 8, np.random.default_rng(2))
    device = DeviceModel(device_id="d0")
    spec = WorkerSpec.from_model("w0", model, "vit", 1e6, device)
    assert spec.quant == "fp32"
    qspec = WorkerSpec.from_model("w0", nn.quantize_module(model), "vit",
                                  1e6, device)
    assert qspec.quant == "int8"
