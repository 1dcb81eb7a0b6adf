"""DeploymentPlan data model: lookups, validation, JSON round trip."""

from pathlib import Path

import pytest

from repro.assignment import InfeasibleAssignment
from repro.edge.device import DeviceModel
from repro.edge.network import LinkModel, uniform_star
from repro.edge.simulator import simulate_inference
from repro.planning import (
    DeploymentPlan,
    PlannedSubModel,
    plan_demo_system,
    replan_on_failure,
)

# A two-worker demo plan written by an earlier version of `repro plan`.
OLD_PLAN = Path(__file__).parent / "data" / "demo_plan_with_scoring.json"


def make_submodel(i, size=1000, flops=1e6, classes=(0, 1), dim=8):
    return PlannedSubModel(model_id=f"submodel-{i}", classes=tuple(classes),
                           hp=0, size_bytes=size, flops_per_sample=flops,
                           feature_dim=dim, model_kind="vit",
                           model_config={"image_size": 8, "in_channels": 3})


def make_device(i, mem=10_000, energy=1e9, macs=1e12):
    return DeviceModel(device_id=f"edge-{i}", macs_per_second=macs,
                       memory_bytes=mem, energy_flops=energy)


def make_plan(num_devices=2, **overrides):
    submodels = [make_submodel(0, classes=(0, 1)),
                 make_submodel(1, classes=(2, 3))]
    devices = [make_device(i) for i in range(num_devices)]
    fusion = DeviceModel(device_id="fusion", macs_per_second=1e12,
                         memory_bytes=10_000, energy_flops=1e9)
    defaults = dict(
        num_classes=4,
        partition=[[0, 1], [2, 3]],
        submodels=submodels,
        devices=devices,
        mapping={"submodel-0": "edge-0",
                 "submodel-1": devices[-1].device_id},
        fusion_device=fusion,
        topology=uniform_star([d.device_id for d in devices + [fusion]],
                              LinkModel(bandwidth_bps=1e9,
                                        overhead_seconds=0.0)),
        fusion_flops=1e4,
        fusion_config={"input_dim": 16, "num_classes": 4, "shrink": 0.5,
                       "name": "fusion-mlp"},
    )
    defaults.update(overrides)
    return DeploymentPlan(**defaults)


class TestLookups:
    def test_submodel_and_device(self):
        plan = make_plan()
        assert plan.submodel("submodel-1").classes == (2, 3)
        assert plan.device("edge-0").memory_bytes == 10_000
        assert plan.device("fusion").device_id == "fusion"
        with pytest.raises(KeyError):
            plan.submodel("nope")
        with pytest.raises(KeyError):
            plan.device("nope")

    def test_models_on(self):
        plan = make_plan(num_devices=1,
                         mapping={"submodel-0": "edge-0",
                                  "submodel-1": "edge-0"})
        assert plan.models_on("edge-0") == ["submodel-0", "submodel-1"]


class TestValidate:
    def test_valid_plan_passes(self):
        make_plan().validate()

    def test_unmapped_submodel_rejected(self):
        plan = make_plan(mapping={"submodel-0": "edge-0"})
        with pytest.raises(InfeasibleAssignment):
            plan.validate()

    def test_duplicate_model_ids_rejected(self):
        plan = make_plan(submodels=[make_submodel(0, classes=(0, 1)),
                                    make_submodel(0, classes=(2, 3))],
                         mapping={"submodel-0": "edge-0"})
        with pytest.raises(InfeasibleAssignment, match="exactly once"):
            plan.validate()

    def test_unknown_device_rejected(self):
        plan = make_plan(mapping={"submodel-0": "edge-0",
                                  "submodel-1": "ghost"})
        with pytest.raises(InfeasibleAssignment):
            plan.validate()

    def test_over_memory_rejected(self):
        plan = make_plan(num_devices=1,
                         submodels=[make_submodel(0, size=8_000,
                                                  classes=(0, 1)),
                                    make_submodel(1, size=8_000,
                                                  classes=(2, 3))],
                         mapping={"submodel-0": "edge-0",
                                  "submodel-1": "edge-0"})
        with pytest.raises(InfeasibleAssignment):
            plan.validate()

    def test_bad_partition_rejected(self):
        plan = make_plan(partition=[[0, 1], [1, 3]])
        with pytest.raises(ValueError):
            plan.validate()


class TestSerialization:
    def test_dict_round_trip(self):
        plan = make_plan()
        again = DeploymentPlan.from_dict(plan.to_dict())
        assert again.to_dict() == plan.to_dict()
        assert again.submodels == plan.submodels
        assert again.devices == plan.devices

    def test_json_round_trip(self):
        plan = make_plan()
        again = DeploymentPlan.from_json(plan.to_json())
        assert again.to_dict() == plan.to_dict()

    def test_save_load(self, tmp_path):
        plan = make_plan()
        path = plan.save(tmp_path / "plan.json")
        again = DeploymentPlan.load(path)
        assert again.to_dict() == plan.to_dict()
        again.validate()

    def test_a_committed_plan_file_reserializes_byte_for_byte(self):
        assert DeploymentPlan.load(OLD_PLAN).to_json() + "\n" \
            == OLD_PLAN.read_text()

    def test_json_values_keep_their_types(self):
        text = OLD_PLAN.read_text().replace(
            '"macs_per_second": 1000000000000.0',
            '"macs_per_second": 1000000000000')
        assert DeploymentPlan.from_json(text).to_json() + "\n" == text

    def test_the_des_sees_the_plans_own_fleet(self):
        # A heterogeneous fleet, and the same fleet after one device went
        # down: the DES reads the plan's devices and links as they are,
        # and a replanned plan carries only the links of its devices.
        plan = plan_demo_system(num_workers=3, throughputs=[1.0, 2.0, 4.0],
                                transport="inprocess").plan
        replanned = replan_on_failure(plan, {"edge-0"})
        assert set(replanned.topology.device_links) \
            == {"edge-1", "edge-2", "fusion"}
        for each in (plan, replanned):
            spec = each.deployment_spec()
            assert spec.devices is each.devices
            assert spec.fusion_device is each.fusion_device
            assert spec.topology is each.topology
            assert DeploymentPlan.from_json(each.to_json()) == each

    def test_unsupported_version_rejected(self):
        data = make_plan().to_dict()
        data["format_version"] = 999
        with pytest.raises(ValueError):
            DeploymentPlan.from_dict(data)

    @pytest.mark.parametrize("key", [
        "num_classes", "partition", "submodels", "devices", "mapping",
        "fusion_device", "fusion_flops", "fusion_config"])
    def test_a_missing_required_key_is_named(self, key):
        data = make_plan().to_dict()
        del data[key]
        with pytest.raises(ValueError,
                           match=rf"missing required keys \['{key}'\]"):
            DeploymentPlan.from_dict(data)

    def test_history_and_build_survive(self):
        plan = make_plan(build={"recipe": "demo-v1", "image_size": 8},
                         history=[{"kind": "replan", "down_devices": ["x"]}])
        again = DeploymentPlan.from_json(plan.to_json())
        assert again.build["recipe"] == "demo-v1"
        assert again.history[0]["kind"] == "replan"


class TestDerivedViews:
    def test_deployment_spec_simulates(self):
        plan = make_plan()
        result = simulate_inference(plan.deployment_spec(), num_samples=2)
        assert len(result.latencies) == 2
        assert result.makespan > 0
