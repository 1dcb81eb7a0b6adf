"""Planner pipeline: partition → schedule → assignment → DES scoring."""

import numpy as np
import pytest

from repro.edge.device import DeviceModel
from repro.models.vit import ViTConfig
from repro.planning import (
    Planner,
    PlannedSubModel,
    PlannerConfig,
    PlanningError,
    score_plan,
)
from repro.planning.execute import plan_demo_system


def small_base():
    return ViTConfig(image_size=16, patch_size=4, num_classes=10,
                     depth=2, embed_dim=32, num_heads=4, name="vit-test")


def fleet(count, energy=1e11):
    return [DeviceModel(device_id=f"pi-{i}", macs_per_second=1e9,
                        memory_bytes=64 * 2 ** 20, energy_flops=energy)
            for i in range(count)]


class TestPlanVit:
    def test_produces_valid_scored_plan(self):
        planner = Planner(fleet(3), config=PlannerConfig(seed=0))
        plan = planner.plan_vit(small_base(), num_groups=3)
        plan.validate()
        assert len(plan.submodels) == 3
        assert plan.prediction is not None
        assert plan.prediction.latency_s > 0
        assert plan.prediction.energy_j > 0
        # every class covered exactly once across the sub-models
        covered = sorted(c for m in plan.submodels for c in m.classes)
        assert covered == list(range(10))

    def test_submodels_carry_rebuildable_configs(self):
        planner = Planner(fleet(2), config=PlannerConfig(seed=0))
        plan = planner.plan_vit(small_base(), num_groups=2)
        for sub in plan.submodels:
            assert sub.model_kind == "vit"
            config = ViTConfig.from_dict(sub.model_config)
            assert config.num_classes == len(sub.classes)
            assert config.embed_dim == sub.feature_dim

    def test_infeasible_fleet_raises_planning_error(self):
        # Energy budget far below one sample's FLOPs at maximum pruning.
        planner = Planner(fleet(2, energy=10.0),
                          config=PlannerConfig(seed=0))
        with pytest.raises(PlanningError):
            planner.plan_vit(small_base(), num_groups=2)

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError):
            Planner([])

    def test_plan_records_no_scoring_knobs(self):
        # The DES scoring knobs are module constants, not plan fields.
        planner = Planner(fleet(2), config=PlannerConfig(seed=0))
        plan = planner.plan_vit(small_base(), num_groups=2)
        assert "scoring" not in plan.build
        assert "scoring" not in plan_demo_system(num_workers=2,
                                                 seed=0).plan.build


class TestPlanSubmodels:
    def submodels(self, size_bytes):
        return [PlannedSubModel(model_id=f"submodel-{i}",
                                classes=(2 * i, 2 * i + 1), hp=0,
                                size_bytes=size_bytes, flops_per_sample=1e6,
                                feature_dim=8, model_kind="vit",
                                model_config={"image_size": 8,
                                              "in_channels": 3})
                for i in range(2)]

    @pytest.mark.parametrize("quant", ["int8", "auto"])
    def test_int8_without_its_size_is_a_key_error(self, quant):
        # Larger than a device's 64 MiB, so "auto" falls back to int8 too;
        # a missing quantized size is an error, never an estimate.
        submodels = self.submodels(size_bytes=100 * 2 ** 20)
        with pytest.raises(KeyError, match="submodel-1"):
            Planner(fleet(2)).plan_submodels(
                4, [[0, 1], [2, 3]], submodels, quant=quant,
                int8_sizes={"submodel-0": 2 ** 20})


class TestPlanDemoFleet:
    def test_heterogeneous_fleet_planned_and_scored(self):
        system = plan_demo_system(num_workers=3, seed=0,
                                  throughputs=[1.0, 0.5, 0.25])
        plan = system.plan
        plan.validate()
        assert len(plan.devices) == 3
        assert {d.macs_per_second for d in plan.devices} == \
            {1e12, 0.5e12, 0.25e12}
        assert plan.prediction.latency_s > 0
        assert plan.prediction.accuracy is None       # untrained
        assert plan.build["recipe"] == "demo-v1"

    def test_rescore_matches_stored_prediction(self):
        system = plan_demo_system(num_workers=2, seed=0)
        plan = system.plan
        rescored = score_plan(plan)
        assert rescored.latency_s == pytest.approx(plan.prediction.latency_s)
        assert rescored.energy_j == pytest.approx(plan.prediction.energy_j)

    def test_throughputs_length_checked(self):
        with pytest.raises(ValueError):
            plan_demo_system(num_workers=3, throughputs=[1.0])


class TestModelFlops:
    def test_builtin_kinds_profiled(self):
        from repro.profiling import model_flops

        assert model_flops("vit", small_base()) > 0

    @pytest.mark.parametrize("kind", ["vit", "vgg", "snn"])
    def test_each_kind_is_counted_by_its_own_profiler(self, kind):
        from repro.profiling import model_flops, paper_flops, snn_flops, \
            vgg_flops
        from repro.serving.demo import _tiny_model

        config = _tiny_model(kind, 10, 8, np.random.default_rng(0)).config
        profiler = {"vit": paper_flops, "vgg": vgg_flops,
                    "snn": snn_flops}[kind]
        assert model_flops(kind, config) == profiler(config) > 0

    def test_kind_without_profiler_raises(self):
        from repro.profiling import model_flops

        with pytest.raises(KeyError):
            model_flops("mystery", {})
