"""Workers that come to share a device at run time share its timeline.

A device is one CPU and one uplink.  A replanned orphan is spawned onto a
survivor's device, and a rolling swap boots the replacement on the old
worker's device; either way the two workers queue on that one link, as
the DES charges them, instead of transmitting side by side.
"""

import dataclasses
import threading
import time

import numpy as np
import pytest

from repro.edge.network import LinkModel, StarTopology
from repro.edge.runtime import WorkerSpec
from repro.obs import disable_tracing, enable_tracing, get_tracer
from repro.planning import DeploymentPlan, plan_demo_system

# Per image, on every device of the plan.
COMPUTE_S, TRANSFER_S = 1e-3, 20e-3
# Span instants are wall-clock anchored per batch; allow for the anchor.
CLOCK_SLACK_S = 1e-3


@pytest.fixture(scope="module")
def base():
    return plan_demo_system(num_workers=2, transport="inprocess")


@pytest.fixture
def system(base):
    """``base`` on devices where one image costs ``COMPUTE_S`` of compute
    and ``TRANSFER_S`` on the wire, served at time_scale 1."""
    plan = DeploymentPlan.from_json(base.plan.to_json())
    sub = plan.submodels[0]
    plan.devices = [dataclasses.replace(
        device, macs_per_second=sub.flops_per_sample / COMPUTE_S)
        for device in plan.devices]
    link = LinkModel(bandwidth_bps=8 * 4 * sub.feature_dim / TRANSFER_S,
                     overhead_seconds=0.0)
    plan.topology = StarTopology(device_links={
        **plan.topology.device_links,
        **{device.device_id: link for device in plan.devices}})
    enable_tracing()
    get_tracer().clear()
    yield dataclasses.replace(base, plan=plan, time_scale=1.0)
    disable_tracing()


def x(seed=0):
    return np.random.default_rng(seed).normal(
        size=(2, 3, 8, 8)).astype(np.float32)


def transfers(*workers):
    """The ``link.transfer`` spans of ``workers``, in delivery order."""
    return sorted((s for s in get_tracer().spans()
                   if s.name == "link.transfer"
                   and s.attrs["worker"] in workers),
                  key=lambda s: s.ts + s.duration_s)


def test_a_replanned_orphan_queues_behind_the_survivor(system):
    victim, survivor = system.plan.model_ids
    with system.make_server() as server:
        server.infer(x())
        server.cluster.kill_worker(victim)
        server.infer(x())              # degraded; the replan follows it
        deadline = time.perf_counter() + 30.0
        while server.hosting()[victim] == victim \
                and time.perf_counter() < deadline:
            time.sleep(0.01)
        orphan = server.hosting()[victim]
        assert orphan != victim
        assert system.plan.mapping[victim] == system.plan.mapping[survivor]
        get_tracer().clear()
        server.infer(x(1))
    first, second = transfers(orphan, survivor)
    assert {first.attrs["worker"], second.attrs["worker"]} == \
        {orphan, survivor}
    # One uplink: the second transfer starts when the first one ends.
    gap = (second.ts + second.duration_s) - (first.ts + first.duration_s)
    assert gap >= second.duration_s - 1e-6


def test_a_rolling_swap_never_overlaps_old_and_new_transfers(system):
    w0 = system.plan.model_ids[0]
    new = f"{w0}@v2"
    with system.make_server() as server:
        server.infer(x())
        stop = threading.Event()

        def client(seed):
            while not stop.is_set():
                server.infer(x(seed), timeout=10.0)

        threads = [threading.Thread(target=client, args=(seed,))
                   for seed in range(3)]
        for thread in threads:
            thread.start()
        try:
            time.sleep(0.1)
            server.swap_worker(w0, WorkerSpec.from_plan(
                system.plan, w0, system.models[0], worker_id=new))
            time.sleep(0.1)
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert server.stats().failed == 0
    spans = transfers(w0, new)
    old = [(s.ts, s.ts + s.duration_s) for s in spans
           if s.attrs["worker"] == w0]
    fresh = [(s.ts, s.ts + s.duration_s) for s in spans
             if s.attrs["worker"] == new]
    assert old and fresh
    # The old worker's last transfers drain before the new worker's
    # first ones start: both workers sit on the same device.
    assert max(end for _, end in old) <= \
        min(start for start, _ in fresh) + CLOCK_SLACK_S
