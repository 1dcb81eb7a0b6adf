"""Online replanning through the serving layer.

A plan-booted server reacts to a worker kill by reassigning the dead
device's sub-model onto a survivor's residual capacity and spawning a
replacement worker — so accuracy recovers to the healthy level instead of
staying on the zero-fill degraded floor.  With replanning disabled the
old behaviour (permanent zero-fill) is preserved.
"""

import time

import numpy as np
import pytest

from repro.planning import DeploymentPlan, PlannedSystem, plan_demo_system


@pytest.fixture(scope="module")
def trained_system():
    # Full round trip on purpose: the served fleet is rebuilt from the
    # plan's JSON form, so these tests cover plan -> JSON -> plan -> serve.
    planned = plan_demo_system(num_workers=2, seed=0, train_fusion=True,
                               fusion_epochs=8)
    return PlannedSystem.from_plan(
        DeploymentPlan.from_json(planned.plan.to_json()))


@pytest.fixture(scope="module")
def test_set(trained_system):
    dataset = trained_system.eval_dataset()
    return dataset.x_test.astype(np.float32), np.asarray(dataset.y_test)


def wait_for_rehost(server, slot, timeout=30.0):
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        if server.hosting()[slot] != slot:
            return
        time.sleep(0.05)
    raise AssertionError(f"slot {slot} was never re-hosted")


def test_replan_recovers_accuracy_above_zero_fill_floor(trained_system,
                                                        test_set):
    x, y = test_set
    healthy = trained_system.local_accuracy(x, y)
    zero_fill_floor = trained_system.local_accuracy(x, y, zero_models=(0,))
    # The rebuild reproduces the accuracy the plan recorded when trained.
    assert healthy == trained_system.plan.prediction.accuracy > 0.15
    assert healthy > zero_fill_floor   # else recovery would be unobservable

    victim = trained_system.plan.model_ids[0]
    with trained_system.make_server() as server:
        served_healthy = float((server.infer(x, timeout=60.0) == y).mean())

        server.cluster.kill_worker(victim)
        # The next batch notices the death, serves degraded, then replans.
        server.infer(x[:4], timeout=60.0)
        wait_for_rehost(server, victim)

        recovered = float((server.infer(x, timeout=60.0) == y).mean())
        hosting = server.hosting()
        report = server.stats()

    assert served_healthy == pytest.approx(healthy)
    # Replanning restores the exact healthy accuracy (same weights, real
    # features in every slot) — strictly above the degraded floor.
    assert recovered == pytest.approx(healthy)
    assert recovered > zero_fill_floor
    assert hosting[victim] != victim
    assert report.failed == 0
    assert report.worker_health[victim] != "up"
    assert report.worker_health[hosting[victim]] == "up"
    # The system's plan was updated in place and stays valid.
    trained_system.plan.validate()
    assert trained_system.plan.history[-1]["kind"] == "replan"


def test_without_replanning_zero_fill_persists(trained_system, test_set):
    x, y = test_set
    victim = trained_system.plan.model_ids[0]
    with trained_system.make_server(replan=False) as server:
        server.cluster.kill_worker(victim)
        server.infer(x[:4], timeout=60.0)      # absorbs the death
        degraded = server.infer(x, timeout=60.0)
        hosting = server.hosting()
    np.testing.assert_array_equal(
        degraded, trained_system.local_fused_labels(x, zero_models=(0,)))
    assert hosting[victim] == victim           # nothing was re-hosted


def test_replan_reports_infeasible_and_keeps_serving(test_set):
    # A 2-worker fleet with no headroom: the orphan cannot be re-placed,
    # so the server must stay in degraded mode without crashing.
    system = plan_demo_system(num_workers=2, seed=0, train_fusion=True,
                              fusion_epochs=8)
    # Shrink every device budget to exactly its own sub-model's footprint.
    import dataclasses

    plan = system.plan
    tight = []
    for device in plan.devices:
        hosted = [plan.submodel(m) for m in plan.models_on(device.device_id)]
        tight.append(dataclasses.replace(
            device,
            memory_bytes=sum(m.size_bytes for m in hosted),
            energy_flops=sum(m.flops_per_sample * plan.num_samples
                             for m in hosted)))
    plan.devices = tight
    x, y = test_set
    victim = plan.model_ids[0]
    with system.make_server() as server:
        server.cluster.kill_worker(victim)
        server.infer(x[:4], timeout=60.0)
        time.sleep(0.3)                        # give a failed replan time
        degraded = server.infer(x, timeout=60.0)
        hosting = server.hosting()
    np.testing.assert_array_equal(
        degraded, system.local_fused_labels(x, zero_models=(0,)))
    assert hosting[victim] == victim
    assert system.plan.history == []           # no replan event recorded
