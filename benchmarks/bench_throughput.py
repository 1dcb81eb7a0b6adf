"""Streaming throughput (extension experiment).

The paper evaluates single-sample latency; a deployed video pipeline cares
about sustained throughput.  Two complementary measurements:

* the discrete-event simulator's pipelined FIFO model (device-count
  sweeps, utilization, energy) — analytic, full-size configs; and
* the *real* serving layer (:mod:`repro.serving`): Poisson traffic from
  the load generator against an emulated process fleet, reporting the
  latency-vs-offered-load curve and the dynamic-batching-on/off
  throughput comparison.
"""

from benchmarks.conftest import print_table
from repro.planning import plan_demo_system
from repro.serving import (
    BatchingConfig,
    LoadgenConfig,
    ServerConfig,
    run_load,
    sweep_offered_load,
)
from repro.core.experiments import PAPER_BUDGETS_MB, split_plan
from repro.edge.simulator import energy_report, simulate_inference, utilization_report
from repro.models.vit import vit_base_config

FRAMES = 50


def test_throughput_vs_devices(benchmark):
    base = vit_base_config(num_classes=10)

    def run():
        rows = []
        for n in (1, 2, 3, 5, 10):
            spec = split_plan(base, n, PAPER_BUDGETS_MB["vit-base"]
                              ).deployment_spec()
            result = simulate_inference(spec, num_samples=FRAMES)
            util = utilization_report(result)
            energy = energy_report(spec, result)
            workers = [d.device_id for d in spec.devices]
            worker_util = [util[d] for d in workers]
            worker_energy = [energy[d] for d in workers]
            rows.append({
                "devices": n,
                "throughput_fps": result.throughput,
                "p50_latency_s": sorted(result.latencies)[FRAMES // 2],
                "mean_worker_util": sum(worker_util) / len(worker_util),
                "per_device_energy_j": max(worker_energy),
                "fleet_energy_j": sum(energy.values()),
            })
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(f"Streaming throughput over {FRAMES} frames (simulated)",
                rows)
    fps = [r["throughput_fps"] for r in rows]
    # More devices -> more frames/sec (N=1 and N=2 tie: identical hp=6
    # sub-models bound each device, and only the fusion width differs).
    assert all(b >= a * 0.999 for a, b in zip(fps, fps[1:]))
    # The paper's energy claim is per *device*: each device's sub-model
    # shrinks with N, so its energy bill falls (the fleet total grows,
    # since every device processes every frame).
    per_device = [r["per_device_energy_j"] for r in rows]
    assert per_device[-1] < per_device[0] / 5


def test_open_stream_stability(benchmark):
    """An arrival rate below capacity keeps latency flat (no queue growth)."""
    base = vit_base_config(num_classes=10)
    spec = split_plan(base, 5, PAPER_BUDGETS_MB["vit-base"]).deployment_spec()

    def run():
        probe = simulate_inference(spec, num_samples=1)
        interval = probe.max_latency * 1.2
        return simulate_inference(spec, num_samples=20,
                                  arrival_interval=interval)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nopen stream: first={result.latencies[0]:.3f}s "
          f"last={result.latencies[-1]:.3f}s")
    assert result.latencies[-1] < result.latencies[0] * 1.05


def _demo_server(max_batch_samples: int, max_wait_s: float) -> tuple:
    system = plan_demo_system(num_workers=2)
    server = system.make_server(
        ServerConfig(batching=BatchingConfig(
            max_batch_samples=max_batch_samples, max_wait_s=max_wait_s)),
        replan=False)
    return system, server


def test_served_latency_vs_offered_load(benchmark):
    """Open-loop Poisson sweep against the real process fleet."""
    rates = [50.0, 100.0, 200.0, 400.0, 800.0]

    def run():
        system, server = _demo_server(max_batch_samples=16, max_wait_s=0.002)
        with server:
            return sweep_offered_load(server, system.input_shape, rates,
                                      num_requests=120)

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table("Latency vs offered load (2 emulated workers, served)",
                [r.row() for r in results])
    for result in results:
        assert result.errors == 0 and result.dropped == 0
        # Below saturation the generator must keep up with the offered rate.
        assert result.achieved_rps > result.offered_rps * 0.5


def test_served_batching_throughput(benchmark):
    """Dynamic batching must beat one-request-at-a-time dispatch."""

    def run():
        rows = []
        for label, max_batch, max_wait in (("batch=1", 1, 0.0),
                                           ("dynamic", 16, 0.005)):
            system, server = _demo_server(max_batch, max_wait)
            with server:
                result = run_load(server, system.input_shape,
                                  LoadgenConfig(num_requests=200,
                                                mode="closed",
                                                concurrency=8))
            rows.append({"batching": label, **result.row()})
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table("Closed-loop throughput: dynamic batching vs batch=1", rows)
    single, dynamic = rows[0], rows[1]
    assert dynamic["errors"] == 0 and single["errors"] == 0
    assert dynamic["achieved_rps"] > single["achieved_rps"]


def test_served_degraded_after_worker_kill(benchmark):
    """Killing a worker mid-run degrades service instead of dropping it."""

    def run():
        import threading

        system, server = _demo_server(max_batch_samples=16, max_wait_s=0.002)
        with server:
            victim = system.plan.model_ids[0]
            threading.Timer(0.15, server.cluster.kill_worker,
                            (victim,)).start()
            result = run_load(server, system.input_shape,
                              LoadgenConfig(num_requests=150, mode="open",
                                            offered_rps=300.0))
            return result, server.stats()

    result, report = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table("Serving through a mid-run worker kill",
                [{**result.row(), "degraded": report.degraded_requests}])
    assert result.errors == 0 and result.dropped == 0
    assert report.degraded_requests > 0           # the kill landed mid-run
    assert sum(1 for s in report.worker_health.values() if s == "up") == 1
