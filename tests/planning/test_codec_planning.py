"""Codec plumbing through plans and the planner's codec selection."""

import numpy as np
import pytest

from repro.edge.codec import get_codec
from repro.planning import (
    DEFAULT_CANDIDATE_CODECS,
    DeploymentPlan,
    PlannedSystem,
    Planner,
    plan_demo_system,
)


@pytest.fixture(scope="module")
def q8_system():
    return plan_demo_system(num_workers=2, codec="q8")


class TestPlanCarriesCodec:
    def test_json_round_trip_preserves_codec(self, q8_system):
        plan = q8_system.plan
        rebuilt = DeploymentPlan.from_json(plan.to_json())
        assert rebuilt.codec == "q8"
        assert rebuilt.to_dict() == plan.to_dict()

    def test_legacy_json_defaults_to_raw32(self, q8_system):
        data = q8_system.plan.to_dict()
        del data["codec"]              # a pre-codec plan file
        assert DeploymentPlan.from_dict(data).codec == "raw32"

    def test_validate_rejects_unknown_codec(self, q8_system):
        plan = DeploymentPlan.from_dict(q8_system.plan.to_dict())
        plan.codec = "nope"
        with pytest.raises(KeyError, match="unknown feature codec"):
            plan.validate()

    def test_deployment_spec_uses_encoded_bytes(self, q8_system):
        plan = q8_system.plan
        for model_id, profile in plan.deployment_spec().profiles.items():
            submodel = plan.submodel(model_id)
            assert profile.feature_bytes == get_codec("q8").estimate_bytes(
                submodel.feature_dim)
            assert profile.feature_bytes < 4 * submodel.feature_dim

    def test_worker_specs_inherit_the_plan_codec(self, q8_system):
        x = np.random.default_rng(1).normal(
            size=(8, *q8_system.input_shape)).astype(np.float32)
        with q8_system.make_server() as server:
            labels = server.infer(x)
            report = server.stats()
        assert all(spec.codec == "q8" for spec in server.cluster.specs)
        np.testing.assert_array_equal(labels,
                                      q8_system.local_fused_labels(x))
        # 2 workers x 8 samples x (8 one-byte features + 8 B row header).
        assert report.wire_bytes_in == 2 * 8 * (8 + 8)

    def test_replanning_keeps_the_codec(self, q8_system):
        from repro.planning import replan_on_failure

        plan = q8_system.plan
        new_plan = replan_on_failure(plan, {plan.mapping["submodel-0"]})
        assert new_plan.codec == "q8"


class TestSelectCodec:
    def test_picks_a_smaller_codec_on_a_slow_link(self):
        system = plan_demo_system(num_workers=2)
        planner = Planner(system.plan.devices, system.plan.fusion_device)
        best = planner.select_codec(system.plan)
        assert best.codec != "raw32"   # every lossy candidate ships less
        assert best.prediction.latency_s \
            <= system.plan.prediction.latency_s
        selection = best.build["codec_selection"]
        assert [c["codec"] for c in selection["candidates"]] \
            == list(DEFAULT_CANDIDATE_CODECS)

    def test_measured_accuracy_gates_candidates(self):
        system = plan_demo_system(num_workers=2)
        planner = Planner(system.plan.devices, system.plan.fusion_device)

        def measure(codec_name):
            return 0.9 if codec_name in ("raw32", "f16") else 0.5

        best = planner.select_codec(system.plan, measure_accuracy=measure)
        assert best.codec == "f16"     # q8 variants fail the measured bound
        assert best.prediction.accuracy == 0.9

    def test_lossy_candidates_rejected_fall_back_to_raw32(self):
        system = plan_demo_system(num_workers=2)
        planner = Planner(system.plan.devices, system.plan.fusion_device)
        best = planner.select_codec(
            system.plan,
            measure_accuracy=lambda name: 1.0 if name == "raw32" else 0.0)
        assert best.codec == "raw32"

    def test_auto_codec_in_plan_demo_system(self):
        system = plan_demo_system(num_workers=2, codec="auto")
        assert system.plan.codec in DEFAULT_CANDIDATE_CODECS
        assert system.plan.codec != "raw32"
        assert "codec_selection" in system.plan.build


class TestCodecAccuracy:
    def test_fused_accuracy_within_bound_of_raw32(self):
        """Trained demo: q8/f16 fused accuracy within 0.01 of raw32."""
        system = plan_demo_system(num_workers=2, train_fusion=True,
                                  fusion_epochs=4)
        dataset = system.eval_dataset()
        accuracies = {}
        for codec in ("raw32", "f16", "q8"):
            plan = DeploymentPlan.from_dict(system.plan.to_dict())
            plan.codec = codec
            coded = PlannedSystem(plan=plan, models=system.models,
                                  fusion=system.fusion)
            accuracies[codec] = coded.local_accuracy(dataset.x_test,
                                                     dataset.y_test)
        assert accuracies["raw32"] - accuracies["f16"] <= 0.01
        assert accuracies["raw32"] - accuracies["q8"] <= 0.01
