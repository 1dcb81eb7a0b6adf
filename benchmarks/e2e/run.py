"""Served-latency benchmark over three fleets: the repo's one benchmark.

    python3 benchmarks/e2e/run.py --seed N

boots the compute-bound, link-bound and overhead-bound fleets through
the public API, drives each open loop (one generator) and closed loop
(``nproc`` clients) from this one process, checks every served label
against an in-process reference, prints every metric by name with its
unit plus the per-layer budget of the traced run, writes
``record.json`` / appends ``history.jsonl``, and exits non-zero on a
correctness failure.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace T

is the single-run form ``BENCHMARK.json`` names: one workload, measured
for ``S`` seconds, end-to-end metrics with tracing off (``--trace 0``) or
per-layer metrics from the traced run (``--trace 1``), the result as
one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import record

record.pin_threads()                   # before numpy is first imported
sys.path.insert(0, str(record.ROOT / "src"))

from repro import obs  # noqa: E402

import drivers  # noqa: E402
import fleets  # noqa: E402
import phases  # noqa: E402
import probes  # noqa: E402
import sampling  # noqa: E402

# Set-ups per run (their median is setup_s): at least SETUP_MIN, then more
# while they fit in SETUP_BUDGET_S — the thread fleet boots in 40 ms and
# can afford a dozen, the process fleets take ~0.6 s each.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 12, 2.0
COLD_STARTS = 3
# --quick: one 1-second segment per phase, one set-up, a token warm-up.
QUICK = {"seconds": 3.0, "segments": 1, "setup_min": 1, "setup_max": 1,
         "cold_starts": 1, "warm_up_s": 0.4}
# Share of --seconds the traced run spends on each of its stretches; the
# rest of its time goes to the probes.
TRACE_SHARE = {"lo": 0.15, "hi": 0.15, "sat": 0.10}
LO_PAIRS = 2                           # untraced/traced lo segment pairs
IDLE_PROBE_S = 1.0
CLUSTER_PROBE_S = 2.5


def open_metrics(name: str, phase: phases.Phase, frozen: dict) -> dict:
    out = {f"{name}.latency_p50_ms": phases.latency_p50(phase),
           f"{name}.latency_p95_ms": phases.latency_tail(phase)}
    if name == "hi":
        out["hi.goodput_rps"] = phases.goodput_rps(
            phase, frozen["latency_limit_ms"])
    return out


def undersampled(values: dict) -> list[str]:
    return [f"{name}: p{m['q_used']:.1f} reported, fewer than "
            f"{sampling.MIN_BEYOND} samples beyond p95 (n={m['n']})"
            for name, m in values.items() if m.get("q_used", 95.0) < 95.0]


# ----------------------------------------------------------------------
def measure_end_to_end(prepared, frozen, args) -> tuple[dict, dict, list]:
    """``--trace 0``: set up (median of several), warm up, run the phases."""
    cold = [fleets.cold_start_s() for _ in range(args.cold_starts)]
    setups, fleet = [], None
    while len(setups) < args.setup_min or (
            len(setups) < args.setup_max and sum(setups) < SETUP_BUDGET_S):
        if fleet is not None:
            fleet.close()
        fleet = fleets.boot(prepared)
        setups.append(fleet.timings["setup_s"])
    try:
        submit = fleet.server.submit
        phases.warm_up(submit, prepared, args.warm_up_s)
        cpu_before = phases.cpu_seconds()
        measured = phases.run_phases(submit, prepared, frozen, args.seed,
                                     args.seconds, args.segments)
        cpu_s = phases.cpu_seconds() - cpu_before
        rss_mb = phases.peak_rss_mb()
        health = fleet.server.worker_health()
    finally:
        fleet.close()
    images = phases.images_served(measured.values())
    values = {
        # A cold process's imports, then the boot: each a median.
        "setup_s": {"value": statistics.median(cold)
                    + statistics.median(setups),
                    "spread": sampling.spread(setups), "n": len(setups),
                    "segments": setups},
        **open_metrics("lo", measured["lo"], frozen),
        **open_metrics("hi", measured["hi"], frozen),
        "sat.throughput_ips": phases.throughput_ips(measured["sat"]),
        "cpu_ms_per_image": {"value": cpu_s * 1e3 / max(images, 1),
                             "n": images},
        "peak_rss_mb": {"value": rss_mb},
    }
    verdict = phases.gate(prepared, measured.values(), health)
    verdict["phases"] = {name: phase.counts()
                         for name, phase in measured.items()}
    verdict["setup"] = {"cold_start_s": cold, "boot_s": setups}
    flags = (phases.late_flags(measured["lo"])
             + phases.late_flags(measured["hi"]) + undersampled(values))
    return values, verdict, flags


# ----------------------------------------------------------------------
def measure_per_layer(prepared, frozen, args) -> tuple[dict, dict, list]:
    """``--trace 1``: the traced run and the probes around it."""
    spans = probes.SpanLog()
    with spans.span("setup"):
        fleet = fleets.boot(prepared)
    server, cluster = fleet.server, fleet.server.cluster
    obs_spans = []
    try:
        submit = server.submit
        with spans.span("warm_up"):
            phases.warm_up(submit, prepared, args.warm_up_s)
        # lo, twice over: each seeded schedule once untraced and once
        # replayed with repro.obs tracing on, alternating so that drift
        # of the host hits both sides alike.
        lo = phases.Phase("lo", [])
        lo_traced = phases.Phase("lo", [])
        lo_s = args.seconds * TRACE_SHARE["lo"]
        cpu_before = phases.cpu_seconds()
        for pair in range(LO_PAIRS):
            with spans.span("lo.untraced"):
                lo.segments.append(phases.open_segment(
                    submit, prepared, frozen["rate_lo_rps"], lo_s,
                    phases.segment_rng(args.seed, "lo", pair)))
            with spans.span("lo.traced"):
                obs.enable_tracing()
                try:
                    lo_traced.segments.append(phases.open_segment(
                        submit, prepared, frozen["rate_lo_rps"], lo_s,
                        phases.segment_rng(args.seed, "lo", pair)))
                finally:
                    obs.disable_tracing()
                obs_spans.extend(obs.get_tracer().spans())
        hi_rng = phases.segment_rng(args.seed, "hi", 0)
        with spans.span("hi"):
            hi = phases.Phase("hi", [phases.open_segment(
                submit, prepared, frozen["rate_hi_rps"],
                args.seconds * TRACE_SHARE["hi"], hi_rng)])
        with spans.span("sat"):
            sat = phases.Phase("sat", [phases.closed_segment(
                submit, prepared, args.seconds * TRACE_SHARE["sat"],
                phases.segment_rng(args.seed, "sat", 0))])
        cpu_s = phases.cpu_seconds() - cpu_before
        with spans.span("probe.server.idle_cpu_ms_per_s"):
            cpu_before, t0 = phases.cpu_seconds(), time.perf_counter()
            time.sleep(IDLE_PROBE_S)
            idle_cpu = ((phases.cpu_seconds() - cpu_before) * 1e3
                        / (time.perf_counter() - t0))
        health = server.worker_health()
        # The cluster probe needs the workers without the serve loop
        # polling them: stop the server, keep the cluster.
        server.stop(shutdown_cluster=False)
        lo_metrics = probes.telemetry_metrics(lo.replies(),
                                              fleet.time_scale)
        with spans.span("probe.cluster"):
            cluster_metrics = probes.probe_cluster(
                cluster, prepared.pool,
                batch=round(lo_metrics["batcher.batch_samples_mean"]),
                time_scale=fleet.time_scale,
                offsets=drivers.poisson_offsets(
                    phases.segment_rng(args.seed, "lo", LO_PAIRS),
                    frozen["rate_lo_rps"],
                    max(5, round(frozen["rate_lo_rps"] * CLUSTER_PROBE_S))))
    finally:
        server.stop(shutdown_cluster=False)
        cluster.shutdown()

    with spans.span("probes"):
        m = probes.probe_driver_side(fleet, prepared, spans)
        arrivals = sorted(r.due for r in hi.replies())
        hi_p50 = phases.latency_p50(hi)["value"]
        with spans.span("probe.simulator"):
            m.update(probes.probe_simulator(
                probes.deployment_spec(fleet, prepared),
                [t - arrivals[0] for t in arrivals], hi_p50))
    m.update(lo_metrics)
    m.update(cluster_metrics)
    everything = [lo, lo_traced, hi, sat]
    replies = [r for phase in everything for r in phase.replies()]
    lo_p50 = phases.latency_p50(lo)["value"]
    m.update({
        "loadgen.sent": len(replies),
        "loadgen.late_p95_ms": sampling.percentile(
            [r.late_s * 1e3 for r in lo.replies()], 95),
        "loadgen.latency_p99_ms": sampling.percentile(
            [ms for s in lo.segments for ms in s.latencies_ms()], 99),
        "batcher.hi_batch_samples_mean":
            statistics.fmean(probes.batch_sizes(hi.replies())),
        "batcher.sat_batch_samples_mean":
            statistics.fmean(probes.batch_sizes(sat.replies())),
        "batcher.refused": sum(r.status == drivers.REFUSED for r in replies),
        "server.failed": sum(r.status == drivers.FAILED for r in replies),
        "server.degraded": sum(bool(r.telemetry and r.telemetry.degraded)
                               for r in replies),
        "server.idle_cpu_ms_per_s": idle_cpu,
        "cpu_ms_per_image":
            cpu_s * 1e3 / max(phases.images_served(everything), 1),
        "transport.spawn_s": fleet.timings["spawn_s"],
        "obs.trace_overhead_share":
            (phases.latency_p50(lo_traced)["value"] - lo_p50) / lo_p50,
    })
    m.update(probes.budget(lo_p50, m))
    for reply in lo_traced.replies():
        if reply.status == drivers.OK:
            spans.add_request(reply)
    m["obs.spans"] = len(spans.spans)
    verdict = phases.gate(prepared, everything, health)
    verdict["phases"] = {"lo": lo.counts(), "lo_traced": lo_traced.counts(),
                         "hi": hi.counts(), "sat": sat.counts()}
    m["gate.failed_share"] = verdict["failed_share"]
    m["gate.label_mismatch_share"] = verdict["label_mismatch_share"]
    values = {name: {"value": float(value)} for name, value in m.items()}
    # The open-loop metrics BENCHMARK.json does not gate are published
    # here, from this run's own segments.
    values.update(open_metrics("lo", lo, frozen))
    values.update(open_metrics("hi", hi, frozen))
    verdict["budget"] = probes.budget_lines(lo_p50, m)
    verdict["lo_p50_ms"] = lo_p50

    spans.write(record.OUT / f"{prepared.workload}.spans.json")
    obs.write_chrome_trace(
        obs_spans, str(record.OUT / f"{prepared.workload}.obs_trace.json"))
    flags = phases.late_flags(lo) + phases.late_flags(hi) \
        + undersampled(values)
    return values, verdict, flags


# ----------------------------------------------------------------------
def run_one(args) -> int:
    """One workload, one trace mode; the contract's single-run form."""
    spec = record.load_benchmark()
    frozen = fleets.frozen_load(args.workload)
    scratch = record.OUT / f"scratch-{args.workload}-{args.trace}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        prepared = fleets.prepare(args.workload, args.seed, scratch)
        measure = measure_per_layer if args.trace else measure_end_to_end
        values, verdict, flags = measure(prepared, frozen, args)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    stamped = record.stamp(values, listed)
    # Measured over the full phases but not gated (BENCHMARK.json lists
    # them per-layer): kept in the run's file with their spread.
    unresolved = record.stamp(
        values, [m for m in spec["per_layer"] if m["name"] in values]) \
        if not args.trace else {}

    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    for name, count in verdict["phases"].items():
        print(f"  {name:10s} " + "  ".join(f"{k} {v}"
                                            for k, v in count.items()))
    for name, metric in stamped.items():
        note = f"  spread {metric['spread']:.3f} over " \
               f"{len(metric['segments'])} segments" \
            if metric["segments"] else ""
        print(f"  {name:34s} {metric['value']:14.4f} {metric['unit']}{note}")
    for line in verdict.get("budget", []):
        print(f"  budget: {line}")
    for flag in flags:
        print(f"  flag: {flag}")
    for reason in verdict["reasons"]:
        print(f"  WRONG: {reason}")

    record.write_json(
        record.OUT / f"{args.workload}.trace{args.trace}.json",
        {"schema": record.SCHEMA, "workload": args.workload,
         "trace": args.trace,
         "fingerprint": record.fingerprint(args.seed, args.seconds, frozen),
         "verdict": verdict, "flags": flags, "metrics": stamped,
         "unresolved": unresolved})
    print(record.result_line(verdict["correct"], verdict["attempted"],
                             verdict["failed"], stamped))
    return 0 if verdict["correct"] else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process (so
    set-up time and peak memory are a cold process's); then the record."""
    spec = record.load_benchmark()
    record.validate_benchmark(spec)
    failed, fingerprint = [], {}
    workloads: dict[str, dict] = {}
    for workload in fleets.WORKLOADS:
        merged = {"end_to_end": {}, "unresolved": {}, "per_layer": {},
                  "flags": []}
        for trace in (0, 1):
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.quick:
                command.append("--quick")
            if subprocess.run(command, cwd=record.ROOT).returncode != 0:
                failed.append(f"{workload} --trace {trace}")
                continue
            with open(record.OUT / f"{workload}.trace{trace}.json",
                      encoding="utf-8") as handle:
                run = json.load(handle)
            merged["per_layer" if trace else "end_to_end"] = run["metrics"]
            merged["unresolved"].update(run["unresolved"])
            merged["flags"] += run["flags"]
            merged["verdict_trace%d" % trace] = run["verdict"]
            fingerprint = run["fingerprint"]
        workloads[workload] = merged
    if failed:
        print("FAILED: " + ", ".join(failed))
        return 1
    fingerprint["frozen"] = {w: fleets.frozen_load(w)
                             for w in fleets.WORKLOADS}
    payload = {"schema": record.SCHEMA, "fingerprint": fingerprint,
               "workloads": workloads}
    if args.quick:                     # a smoke run is not a record
        record.write_json(record.OUT / "quick.json", payload)
    else:
        record.write_json(record.RECORD, payload)
        record.append_history(payload)
    return 0


def main(argv=None) -> int:
    spec = record.load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(fleets.WORKLOADS),
                        help="one workload (default: all, then the record)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="smoke: one 1 s segment per phase")
    args = parser.parse_args(argv)
    args.segments, args.warm_up_s = phases.SEGMENTS, phases.WARM_UP_S
    args.setup_min, args.setup_max = SETUP_MIN, SETUP_MAX
    args.cold_starts = COLD_STARTS
    if args.quick:
        for key, value in QUICK.items():
            setattr(args, key, value)
    try:
        return run_one(args) if args.workload else run_all(args)
    finally:
        record.stop_children()         # workers, and the resource tracker


if __name__ == "__main__":
    sys.exit(main())
