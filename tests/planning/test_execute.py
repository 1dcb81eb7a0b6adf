"""Plan → execution bridge: deterministic rebuild, worker specs, clusters."""

import numpy as np
import pytest

from repro.edge.runtime import EdgeCluster, WorkerSpec
from repro.planning import DeploymentPlan, PlannedSystem, plan_demo_system


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

    @pytest.mark.parametrize("build", [
        {"recipe": "mystery", "train_fusion": True},
        # No training step to run, yet the weights were trained elsewhere:
        # a cold rebuild would silently serve random modules.
        {"recipe": "edvit"},
    ], ids=["mystery-trained", "edvit"])
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


class TestWorkerSpecFromPlan:
    def test_spec_reflects_plan_assignment(self):
        system = plan_demo_system(num_workers=2, seed=0,
                                  throughputs=[1.0, 0.5])
        plan = system.plan
        model_id = plan.model_ids[0]
        spec = WorkerSpec.from_plan(plan, model_id, system.models[0])
        device = plan.device(plan.mapping[model_id])
        assert spec.worker_id == model_id
        assert spec.device.device_id == device.device_id
        assert spec.device.macs_per_second == device.macs_per_second
        assert spec.link.bandwidth_bps == device.link_bandwidth_bps
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
        assert cluster.feature_dims() == system.plan.feature_dims()

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
