"""Heterogeneous-fleet scenarios across the assignment + simulation stack."""

import pytest

from repro.assignment import greedy_assign, optimal_assign
from repro.edge.device import (
    DeviceModel,
    PI4B_MACS_PER_SECOND,
    make_fleet,
    raspberry_pi_4b,
)
from repro.edge.simulator import DeploymentSpec, SubModelProfile, simulate_inference
from tests.oracles import sized_submodel

GB = 2 ** 30


def mixed_fleet():
    return [
        DeviceModel("fast", macs_per_second=4 * PI4B_MACS_PER_SECOND,
                    memory_bytes=8 * GB, energy_flops=50e9),
        DeviceModel("pi", macs_per_second=PI4B_MACS_PER_SECOND,
                    memory_bytes=4 * GB, energy_flops=20e9),
        DeviceModel("slow", macs_per_second=0.25 * PI4B_MACS_PER_SECOND,
                    memory_bytes=1 * GB, energy_flops=5e9),
    ]


def submodels(flops_list):
    return [sized_submodel(f"m{i}", 10 * 2 ** 20, float(f))
            for i, f in enumerate(flops_list)]


class TestAssignmentOnMixedFleet:
    def test_greedy_prefers_high_energy_device(self):
        fleet = mixed_fleet()
        plan = greedy_assign(fleet, submodels([4e9]), num_samples=1)
        assert plan.mapping["m0"] == "fast"

    def test_energy_constraint_excludes_slow_device(self):
        fleet = mixed_fleet()
        # 6 GFLOPs workload exceeds the slow device's 5e9 budget.
        plan = greedy_assign(fleet, submodels([6e9, 6e9, 6e9]),
                             num_samples=1)
        assert "slow" not in plan.mapping.values()

    def test_optimal_balances_across_fast_devices(self):
        fleet = mixed_fleet()
        plan = optimal_assign(fleet, submodels([10e9, 10e9]),
                              num_samples=1)
        # Packing both on "fast" leaves it at 30e9 (the hosted min);
        # splitting fast/pi leaves min(40e9, 10e9) = 10e9 — so the optimum
        # packs both on the fast board.
        assert plan.objective == pytest.approx(30e9)


class TestSimulationOnMixedFleet:
    def make_spec(self, placement):
        fleet = mixed_fleet()
        profiles = {m: SubModelProfile(m, 2e9, 128) for m in placement}
        return DeploymentSpec(devices=fleet, placement=placement,
                              profiles=profiles,
                              fusion_device=raspberry_pi_4b("fusion"),
                              fusion_flops=1e6)

    def test_slow_device_dominates_critical_path(self):
        all_fast = simulate_inference(
            self.make_spec({"m0": "fast", "m1": "fast"}), 1).max_latency
        with_slow = simulate_inference(
            self.make_spec({"m0": "fast", "m1": "slow"}), 1).max_latency
        assert with_slow > all_fast

    def test_same_work_faster_on_faster_fleet(self):
        slow_fleet = make_fleet(2)
        fast_fleet = make_fleet(2, macs_per_second=3 * PI4B_MACS_PER_SECOND)

        def run(fleet):
            profiles = {"m0": SubModelProfile("m0", 2e9, 64),
                        "m1": SubModelProfile("m1", 2e9, 64)}
            placement = {"m0": fleet[0].device_id, "m1": fleet[1].device_id}
            spec = DeploymentSpec(devices=fleet, placement=placement,
                                  profiles=profiles,
                                  fusion_device=raspberry_pi_4b("f"),
                                  fusion_flops=0.0)
            return simulate_inference(spec, 1).max_latency

        assert run(fast_fleet) < run(slow_fleet)
