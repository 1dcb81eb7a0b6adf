"""Replanning: orphaned sub-models move into surviving residual capacity."""

import json
from pathlib import Path

import pytest

from repro.planning import (
    ReplanInfeasible,
    plan_artifact_digests,
    replan_on_failure,
    residual_capacity,
    score_plan,
)
from repro.edge.device import DeviceModel
from repro.edge.network import LinkModel, uniform_star
from repro.planning.plan import DeploymentPlan, PlannedSubModel

# A two-worker demo plan in the format that recorded the DES scoring
# knobs in ``build["scoring"]``.
OLD_PLAN = Path(__file__).parent / "data" / "demo_plan_with_scoring.json"


def make_plan(device_mem=(3000, 3000, 3000), device_energy=(1e7, 1e7, 1e7)):
    """Three devices, one sub-model each, headroom for one orphan."""
    submodels = [
        PlannedSubModel(model_id=f"submodel-{i}", classes=(2 * i, 2 * i + 1),
                        hp=0, size_bytes=1000, flops_per_sample=1e6,
                        feature_dim=8, model_kind="vit",
                        model_config={"image_size": 8, "in_channels": 3})
        for i in range(3)]
    devices = [
        DeviceModel(device_id=f"edge-{i}", macs_per_second=1e12,
                    memory_bytes=device_mem[i],
                    energy_flops=device_energy[i])
        for i in range(3)]
    fusion = DeviceModel(device_id="fusion", macs_per_second=1e12,
                         memory_bytes=3000, energy_flops=1e7)
    plan = DeploymentPlan(
        num_classes=6,
        partition=[[0, 1], [2, 3], [4, 5]],
        submodels=submodels,
        devices=devices,
        mapping={f"submodel-{i}": f"edge-{i}" for i in range(3)},
        fusion_device=fusion,
        topology=uniform_star([d.device_id for d in devices + [fusion]],
                              LinkModel(bandwidth_bps=1e9,
                                        overhead_seconds=0.0)),
        fusion_flops=1e4,
        fusion_config={"input_dim": 24, "num_classes": 6, "shrink": 0.5,
                       "name": "fusion-mlp"},
    )
    plan.validate()
    return plan


class TestResidualCapacity:
    def test_subtracts_hosted_models(self):
        plan = make_plan()
        specs = {s.device_id: s for s in residual_capacity(plan, {"edge-0"})}
        assert set(specs) == {"edge-1", "edge-2"}
        assert specs["edge-1"].memory_bytes == 3000 - 1000
        assert specs["edge-1"].energy_flops == pytest.approx(1e7 - 1e6)
        assert specs["edge-1"].macs_per_second \
            == plan.device("edge-1").macs_per_second

    def test_exhausted_devices_omitted(self):
        plan = make_plan(device_mem=(3000, 1000, 3000))
        specs = residual_capacity(plan, {"edge-0"})
        assert {s.device_id for s in specs} == {"edge-2"}


class TestReplanOnFailure:
    def test_orphan_moves_to_survivor(self):
        plan = make_plan()
        new_plan = replan_on_failure(plan, {"edge-0"})
        new_plan.validate()
        assert set(new_plan.device_ids) == {"edge-1", "edge-2"}
        moved_to = new_plan.mapping["submodel-0"]
        assert moved_to in {"edge-1", "edge-2"}
        # survivors keep their original placement
        assert new_plan.mapping["submodel-1"] == "edge-1"
        assert new_plan.mapping["submodel-2"] == "edge-2"

    def test_history_records_event(self):
        plan = make_plan()
        new_plan = replan_on_failure(plan, {"edge-0"})
        event = new_plan.history[-1]
        assert event["kind"] == "replan"
        assert event["down_devices"] == ["edge-0"]
        assert set(event["moved"]) == {"submodel-0"}
        assert plan.history == []      # original untouched

    def test_prediction_rescored_on_shrunken_fleet(self):
        from repro.planning import score_plan

        plan = make_plan()
        before = score_plan(plan)
        new_plan = replan_on_failure(plan, {"edge-0"})
        assert new_plan.prediction is not None
        # two sub-models share a device now: per-sample latency cannot drop
        assert new_plan.prediction.latency_s >= before.latency_s

    def test_accuracy_carried_over(self):
        import dataclasses

        from repro.planning import score_plan

        plan = make_plan()
        plan.prediction = dataclasses.replace(score_plan(plan), accuracy=0.9)
        new_plan = replan_on_failure(plan, {"edge-1"})
        assert new_plan.prediction.accuracy == 0.9

    def test_sequential_failures_accumulate(self):
        plan = make_plan()
        after_one = replan_on_failure(plan, {"edge-0"})
        after_two = replan_on_failure(after_one, {"edge-1"})
        after_two.validate()
        assert after_two.device_ids == ["edge-2"]
        assert set(after_two.mapping.values()) == {"edge-2"}
        assert len(after_two.history) == 2

    def test_infeasible_when_no_memory_headroom(self):
        plan = make_plan(device_mem=(3000, 1000, 1000))
        with pytest.raises(ReplanInfeasible):
            replan_on_failure(plan, {"edge-0"})

    def test_infeasible_when_no_energy_headroom(self):
        plan = make_plan(device_energy=(1e7, 1.5e6, 1.5e6))
        with pytest.raises(ReplanInfeasible):
            replan_on_failure(plan, {"edge-0"})

    def test_all_devices_down_infeasible(self):
        plan = make_plan()
        with pytest.raises(ReplanInfeasible):
            replan_on_failure(plan, {"edge-0", "edge-1", "edge-2"})

    def test_fusion_device_down_infeasible(self):
        plan = make_plan()
        with pytest.raises(ReplanInfeasible):
            replan_on_failure(plan, {"fusion"})

    def test_unknown_device_rejected(self):
        plan = make_plan()
        with pytest.raises(KeyError):
            replan_on_failure(plan, {"ghost"})


class TestOldPlans:
    """A plan that carries ``build["scoring"]`` serves like one without."""

    @staticmethod
    def old_and_bare():
        data = json.loads(OLD_PLAN.read_text())
        assert data["build"]["scoring"] == {"des_samples": 4,
                                            "arrival_interval_s": 0.0}
        old = DeploymentPlan.from_dict(data)
        del data["build"]["scoring"]
        return old, DeploymentPlan.from_dict(data)

    def test_loads_and_rescores_to_its_recorded_prediction(self):
        old = DeploymentPlan.load(OLD_PLAN)
        old.validate()
        assert "scoring" in old.build
        assert score_plan(old) == old.prediction

    def test_scoring_key_changes_no_digest(self):
        old, bare = self.old_and_bare()
        assert plan_artifact_digests(old) == plan_artifact_digests(bare)

    def test_replan_predicts_the_same_with_or_without_it(self):
        old, bare = self.old_and_bare()
        down = {old.mapping["submodel-0"]}
        replanned = replan_on_failure(old, down)
        assert replanned.prediction == replan_on_failure(bare,
                                                         down).prediction
        assert replanned.mapping["submodel-0"] != old.mapping["submodel-0"]
