"""Algorithm 3 greedy-assignment tests."""

import pytest

from repro.assignment.greedy import greedy_assign, try_greedy_assign
from repro.assignment.problem import InfeasibleAssignment, validate_plan
from repro.edge.device import DeviceModel
from tests.oracles import sized_submodel


def device(i, mem=100, energy=100.0):
    return DeviceModel(device_id=f"d{i}", memory_bytes=mem, energy_flops=energy)


def submodel(i, size=10, flops=10.0):
    return sized_submodel(f"m{i}", size, flops)


class TestGreedyAssign:
    def test_one_model_per_device_when_resources_match(self):
        devices = [device(0), device(1)]
        models = [submodel(0, flops=60.0), submodel(1, flops=60.0)]
        plan = greedy_assign(devices, models, num_samples=1)
        assert set(plan.mapping.values()) == {"d0", "d1"}
        validate_plan(plan.mapping, devices, models, num_samples=1)

    def test_heaviest_model_goes_to_strongest_device(self):
        devices = [device(0, energy=50.0), device(1, energy=200.0)]
        models = [submodel(0, flops=90.0), submodel(1, flops=10.0)]
        plan = greedy_assign(devices, models, num_samples=1)
        assert plan.mapping["m0"] == "d1"

    def test_multiple_models_share_a_device(self):
        devices = [device(0, mem=100, energy=100.0)]
        models = [submodel(i, size=20, flops=20.0) for i in range(4)]
        plan = greedy_assign(devices, models, num_samples=1)
        assert all(dev == "d0" for dev in plan.mapping.values())

    def test_memory_exhausted_device_is_skipped(self):
        devices = [device(0, mem=5, energy=1000.0), device(1, mem=100)]
        models = [submodel(0, size=50)]
        plan = greedy_assign(devices, models, num_samples=1)
        assert plan.mapping["m0"] == "d1"

    def test_workload_scales_with_num_samples(self):
        devices = [device(0, energy=100.0)]
        models = [submodel(0, flops=30.0)]
        # 3 samples -> 90 <= 100 fits; 4 samples -> 120 does not.
        assert greedy_assign(devices, models, num_samples=3)
        with pytest.raises(InfeasibleAssignment):
            greedy_assign(devices, models, num_samples=4)

    def test_exact_fit_is_placed(self):
        """Alg. 3's checks are ``>=``: a device whose residual memory and
        energy equal the sub-model's need hosts it, down to zero."""
        devices = [device(0, mem=30, energy=100.0)]
        models = [submodel(0, size=30, flops=50.0)]
        plan = greedy_assign(devices, models, num_samples=2)
        assert plan.mapping["m0"] == "d0"
        assert plan.residual_memory["d0"] == 0
        assert plan.residual_energy["d0"] == 0.0

    def test_residual_bookkeeping(self):
        devices = [device(0, mem=100, energy=100.0)]
        models = [submodel(0, size=30, flops=40.0)]
        plan = greedy_assign(devices, models, num_samples=2)
        assert plan.residual_memory["d0"] == 70
        assert plan.residual_energy["d0"] == pytest.approx(20.0)

    def test_objective_is_min_residual_energy(self):
        devices = [device(0, energy=100.0), device(1, energy=80.0)]
        models = [submodel(0, flops=50.0)]
        plan = greedy_assign(devices, models, num_samples=1)
        assert plan.objective == pytest.approx(50.0)

    def test_no_devices_raises(self):
        with pytest.raises(InfeasibleAssignment):
            greedy_assign([], [submodel(0)], num_samples=1)

    def test_infeasible_raises_with_context(self):
        devices = [device(0, mem=5)]
        with pytest.raises(InfeasibleAssignment, match="m0"):
            greedy_assign(devices, [submodel(0, size=50)], num_samples=1)

    def test_current_model_retries_after_device_removal(self):
        # Strongest-energy device lacks memory; greedy must fall through
        # to the next device for the *same* model, not skip the model.
        devices = [device(0, mem=5, energy=1000.0),
                   device(1, mem=100, energy=500.0)]
        models = [submodel(0, size=50, flops=10.0),
                  submodel(1, size=10, flops=5.0)]
        plan = greedy_assign(devices, models, num_samples=1)
        assert plan.mapping["m0"] == "d1"
        assert plan.mapping["m1"] == "d1"

    def test_empty_model_list(self):
        plan = greedy_assign([device(0)], [], num_samples=1)
        assert plan.mapping == {}

    def test_rejected_device_still_hosts_later_smaller_model(self):
        # Regression: d0 lacks memory for the big m0 but is the only device
        # with energy left for the small m1.  The old code dropped d0 from
        # the fleet while placing m0, then reported this clearly feasible
        # instance as InfeasibleAssignment.
        devices = [device(0, mem=10, energy=1000.0),
                   device(1, mem=100, energy=50.0)]
        models = [submodel(0, size=50, flops=40.0),
                  submodel(1, size=10, flops=30.0)]
        plan = greedy_assign(devices, models, num_samples=1)
        assert plan.mapping == {"m0": "d1", "m1": "d0"}
        validate_plan(plan.mapping, devices, models, num_samples=1)

    def test_per_model_skip_keeps_device_for_every_later_model(self):
        # One memory-tight device must absorb all the small tail models
        # after being rejected by the head model.
        devices = [device(0, mem=8, energy=1000.0),
                   device(1, mem=60, energy=100.0)]
        models = [submodel(0, size=60, flops=90.0)] + [
            submodel(i, size=2, flops=5.0) for i in range(1, 5)]
        plan = greedy_assign(devices, models, num_samples=1)
        assert plan.mapping["m0"] == "d1"
        assert all(plan.mapping[f"m{i}"] == "d0" for i in range(1, 5))
        validate_plan(plan.mapping, devices, models, num_samples=1)


class TestTryGreedyAssign:
    def test_returns_plan_when_feasible(self):
        assert try_greedy_assign([device(0)], [submodel(0)], 1) is not None

    def test_returns_none_when_infeasible(self):
        assert try_greedy_assign([device(0, mem=1)], [submodel(0, size=50)],
                                 1) is None
