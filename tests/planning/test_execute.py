"""Plan → execution bridge: deterministic rebuild, worker specs, clusters."""

import numpy as np
import pytest

from repro import nn
from repro.edge.runtime import MODEL_KINDS, EdgeCluster, WorkerSpec
from repro.planning import (
    DeploymentPlan,
    PlannedSystem,
    execute,
    plan_demo_system,
)
from repro.store import ArtifactStore


def states_equal(a, b):
    return set(a) == set(b) and all(np.array_equal(a[k], b[k]) for k in a)


class TestFromPlan:
    def test_untrained_rebuild_is_exact(self):
        system = plan_demo_system(num_workers=2, seed=3)
        rebuilt = PlannedSystem.from_plan(
            DeploymentPlan.from_json(system.plan.to_json()))
        for original, again in zip(system.models, rebuilt.models):
            assert states_equal(original.state_dict(), again.state_dict())
        assert states_equal(system.fusion.state_dict(),
                            rebuilt.fusion.state_dict())

    def test_local_predictions_survive_round_trip(self):
        system = plan_demo_system(num_workers=2, seed=1)
        rebuilt = PlannedSystem.from_plan(
            DeploymentPlan.from_json(system.plan.to_json()))
        x = np.random.default_rng(0).normal(
            size=(4, *system.input_shape)).astype(np.float32)
        np.testing.assert_array_equal(system.local_fused_labels(x),
                                      rebuilt.local_fused_labels(x))

    def test_a_plan_mapped_to_an_unknown_device_fails_before_any_spec(
            self, monkeypatch):
        from repro.assignment import InfeasibleAssignment

        plan = plan_demo_system(num_workers=2, transport="inprocess").plan
        plan.mapping[plan.model_ids[0]] = "ghost"

        def no_spec(*args, **kwargs):
            raise AssertionError("a worker spec was built")
        monkeypatch.setattr(WorkerSpec, "from_plan", no_spec)
        with pytest.raises(InfeasibleAssignment, match="device 'ghost'"):
            PlannedSystem.from_plan(plan)

    @pytest.mark.parametrize("build", [
        {"recipe": "mystery", "train_fusion": True},
        # No training step to run, yet the weights were trained elsewhere:
        # a cold rebuild would silently serve random modules.
        {"recipe": "edvit"},
        {"recipe": "split-cnn"},
        {"recipe": "split-snn"},
    ], ids=["mystery-trained", "edvit", "split-cnn", "split-snn"])
    def test_unknown_recipe_rejected(self, build):
        system = plan_demo_system(num_workers=2, seed=0)
        system.plan.build = build
        with pytest.raises(ValueError, match=build["recipe"]):
            PlannedSystem.from_plan(system.plan)

    def test_eval_dataset_requires_demo_recipe(self):
        system = plan_demo_system(num_workers=2, seed=0)
        system.plan.build = {}
        with pytest.raises(ValueError):
            system.eval_dataset()


class TestOneDrawPerSubModel:
    """``plan_demo_system`` plans on unwritten modules: a warm call draws
    no weight at all (the store fills the modules it planned on), a cold
    call draws each sub-model exactly once, and a warm boot from a plan
    file builds on unwritten storage too."""

    @pytest.fixture
    def draws(self, monkeypatch):
        """The name of each sub-model constructor that drew weights, and
        ``"init"`` for every initializer call that drew."""
        calls = []
        for owner, name in ((execute, "_tiny_model"),
                            (execute, "build_model"),
                            (nn.init, "uniform"), (nn.init, "trunc_normal")):
            real = getattr(owner, name)
            label = "init" if owner is nn.init else name

            def counted(*args, _real=real, _label=label, **kwargs):
                if not nn.init.is_unwritten():
                    calls.append(_label)
                return _real(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        return calls

    @pytest.mark.parametrize("quant", ["fp32", "int8"])
    @pytest.mark.parametrize("kind", sorted(MODEL_KINDS))
    def test_a_warm_call_draws_nothing_and_a_cold_one_each_submodel_once(
            self, draws, tmp_path, kind, quant):
        store = ArtifactStore(tmp_path)
        cold = plan_demo_system(num_workers=3, model_kind=kind, quant=quant,
                                store=store, transport="inprocess")
        assert not cold.warm_booted
        assert [c for c in draws if c != "init"] == ["build_model"] * 3
        draws.clear()
        warm = plan_demo_system(num_workers=3, model_kind=kind, quant=quant,
                                store=store, transport="inprocess")
        assert warm.warm_booted and draws == []
        assert warm.plan.to_dict() == cold.plan.to_dict()
        for system in (cold, warm):
            for sub, model in zip(system.plan.submodels, system.models):
                assert sub.quant == quant
                assert sub.size_bytes \
                    == nn.state_dict_num_bytes(model.state_dict())
        for a, b in zip(cold.models + [cold.fusion],
                        warm.models + [warm.fusion]):
            assert states_equal(a.state_dict(), b.state_dict())

    def test_warm_plan_file_boot_builds_unwritten(self, draws, tmp_path):
        store = ArtifactStore(tmp_path)
        system = plan_demo_system(num_workers=2, seed=4, store=store,
                                  transport="inprocess")
        draws.clear()
        again = PlannedSystem.from_plan(
            DeploymentPlan.from_json(system.plan.to_json()),
            transport="inprocess", store=store)
        assert again.warm_booted and draws == []
        for a, b in zip(system.models + [system.fusion],
                        again.models + [again.fusion]):
            assert states_equal(a.state_dict(), b.state_dict())


class TestWorkerSpecFromPlan:
    def test_spec_reflects_plan_assignment(self):
        system = plan_demo_system(num_workers=2, seed=0,
                                  throughputs=[1.0, 0.5])
        plan = system.plan
        model_id = plan.model_ids[0]
        spec = WorkerSpec.from_plan(plan, model_id, system.models[0])
        device = plan.device(plan.mapping[model_id])
        assert spec.worker_id == model_id
        assert spec.device is device
        assert spec.link is plan.topology.link_of(device.device_id)
        assert spec.feature_dim == plan.submodel(model_id).feature_dim
        assert spec.flops_per_sample == \
            plan.submodel(model_id).flops_per_sample

    def test_custom_worker_id(self):
        system = plan_demo_system(num_workers=2, seed=0)
        spec = WorkerSpec.from_plan(system.plan, "submodel-1",
                                    system.models[1], worker_id="spare")
        assert spec.worker_id == "spare"


class TestClusterFromPlan:
    def test_specs_align_with_submodels(self):
        system = plan_demo_system(num_workers=3, seed=0)
        cluster = system.make_cluster()
        assert cluster.worker_ids == system.plan.model_ids
        assert cluster.feature_dims() == {
            m.model_id: m.feature_dim for m in system.plan.submodels}

    def test_model_count_mismatch_rejected(self):
        system = plan_demo_system(num_workers=2, seed=0)
        with pytest.raises(ValueError):
            EdgeCluster.from_plan(system.plan, system.models[:1])


class TestAddWorker:
    def test_add_before_start_registers_spec(self):
        system = plan_demo_system(num_workers=2, seed=0)
        cluster = system.make_cluster()
        spare = WorkerSpec.from_plan(system.plan, "submodel-0",
                                     system.models[0], worker_id="spare")
        cluster.add_worker(spare)
        assert cluster.worker_ids == [*system.plan.model_ids, "spare"]

    def test_duplicate_worker_id_rejected(self):
        system = plan_demo_system(num_workers=2, seed=0)
        cluster = system.make_cluster()
        spec = WorkerSpec.from_plan(system.plan, "submodel-0",
                                    system.models[0])
        with pytest.raises(ValueError):
            cluster.add_worker(spec)
