"""The three methods of Table III / Fig. 7 — ED-ViT, Split-CNN and
Split-SNN — as planned systems: each plan describes its pruned modules and
round-trips through JSON, and each system serves on its Alg. 3 placement
with labels equal to the in-process fused reference, on every transport,
healthy, with a killed slot, and after replanning."""

import dataclasses
import json
import time

import numpy as np
import pytest

from repro import nn
from repro.edge.runtime import build_model
from repro.planning import DeploymentPlan
from repro.profiling import model_flops
from repro.serving import BatchingConfig, ServerConfig

METHODS = {"edvit": "edvit_system", "split-cnn": "split_cnn_system",
           "split-snn": "split_snn_system"}
TRANSPORTS = ["inprocess", "multiprocess", "tcp"]


@pytest.fixture(params=list(METHODS))
def system(request):
    return request.getfixturevalue(METHODS[request.param])


def test_plan_describes_the_pruned_modules(system):
    for sub, model in zip(system.plan.submodels, system.models):
        assert sub.model_config == model.config.to_dict()
        # Parameters and buffers (Split-CNN's batch-norm statistics):
        # the bytes its worker holds and its artifact stores.
        assert sub.size_bytes == nn.state_dict_num_bytes(model.state_dict())
        assert sub.flops_per_sample == model_flops(sub.model_kind,
                                                   model.config)
        assert sub.feature_dim == model.feature_dim()


def test_plan_round_trips_through_json(system):
    # VGG's ``plan_override`` and the SNN's ``channels`` are tuples that
    # JSON turns into lists; the rebuilt modules must still strict-load
    # the pruned weights.
    plan = DeploymentPlan.from_dict(
        json.loads(json.dumps(system.plan.to_dict())))
    assert plan.to_json() == system.plan.to_json()
    for sub, model in zip(plan.submodels, system.models):
        rebuilt = build_model(sub.model_kind, sub.model_config)
        assert rebuilt.config == model.config
        rebuilt.load_state_dict(model.state_dict(), strict=True)


def _server(system, transport, replan=False):
    system = dataclasses.replace(system, transport=transport)
    return system, system.make_server(
        ServerConfig(batching=BatchingConfig(max_batch_samples=16,
                                             max_wait_s=0.002),
                     worker_timeout_s=10.0),
        replan=replan)


def _degraded_labels(server, x, victim):
    """Kill ``victim`` and return the first degraded answer's labels."""
    server.cluster.kill_worker(victim)
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        future = server.submit(x)
        labels = future.result(timeout=15.0)
        if future.telemetry.degraded:
            assert future.telemetry.workers_down == (victim,)
            return labels
    raise AssertionError("kill never surfaced as degraded")


@pytest.mark.parametrize("transport", TRANSPORTS)
class TestServed:
    """Every method is served on Alg. 3's placement: served labels equal
    the in-process fused reference exactly."""

    def test_served_labels_equal_local_reference(self, system, tiny_dataset,
                                                 transport):
        x = tiny_dataset.x_test[:12]
        system, server = _server(system, transport)
        with server:
            labels = server.infer(x)
        np.testing.assert_array_equal(labels, system.local_fused_labels(x))

    def test_killed_worker_zero_fills_its_slot(self, system, tiny_dataset,
                                               transport):
        x = tiny_dataset.x_test[:12]
        system, server = _server(system, transport)
        slot = 1
        with server:
            server.infer(x)            # warm: every worker answered once
            labels = _degraded_labels(server, x, system.plan.model_ids[slot])
        np.testing.assert_array_equal(
            labels, system.local_fused_labels(x, zero_models=(slot,)))


def test_replanning_recovers_the_healthy_labels(system, tiny_dataset):
    # The killed sub-model is respawned on the surviving Pi; once it is
    # re-hosted the fused labels are the healthy ones again.
    x = tiny_dataset.x_test[:12]
    system, server = _server(system, "inprocess", replan=True)
    victim = system.plan.model_ids[0]
    with server:
        server.infer(x)
        server.cluster.kill_worker(victim)
        deadline = time.monotonic() + 10.0
        while "@" not in server.hosting()[victim] \
                and time.monotonic() < deadline:
            server.infer(x)
        labels = server.infer(x)
    assert "@" in server.hosting()[victim]
    np.testing.assert_array_equal(labels, system.local_fused_labels(x))
