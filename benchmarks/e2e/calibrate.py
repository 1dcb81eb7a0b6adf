"""How the literals in ``frozen.json`` were derived (run once, on the
seed commit; later commits are measured under the same offered load).

    python3 benchmarks/e2e/calibrate.py

For each workload: boot, warm up, then

1. one client, one image, closed loop: the median ``service_s``
   (dispatch -> reply) of a lone request is how long the serial serve
   loop is busy per request, ``S``;
2. ``rate_lo = 0.14 / S`` and ``rate_hi = 0.42 / S`` — the serve loop is
   busy 14 % / 42 % of the time.  At ``rate_lo`` the median request is
   served alone, so ``lo.latency_p50_ms`` is the length of the path; at
   ``rate_hi`` it queues behind another about half the time;
3. an open loop at ``rate_lo``: ``latency_limit_ms = 3 x`` its p50.

Prints the suggested ``frozen.json``; round by hand and commit.
"""

from __future__ import annotations

import json
import shutil
import sys

import record

record.pin_threads()
sys.path.insert(0, str(record.ROOT / "src"))

import numpy as np  # noqa: E402

import drivers  # noqa: E402
import fleets  # noqa: E402
import phases  # noqa: E402
import sampling  # noqa: E402


def calibrate(workload: str, scratch) -> dict:
    prepared = fleets.prepare(workload, 0, scratch)
    fleet = fleets.boot(prepared)
    try:
        submit = fleet.server.submit
        phases.warm_up(submit, prepared)
        rng = np.random.default_rng(0)
        rows = drivers.request_rows(rng, len(prepared.pool), 4096, 1)
        solo, _ = drivers.closed_loop(submit, 1, 5.0, rows, prepared.pool)
        service_s = sampling.percentile(
            [r.telemetry.service_s for r in solo], 50)
        rate_lo = 0.14 / service_s
        lo = phases.open_segment(submit, prepared, rate_lo, 10.0, rng)
        lo_p50 = sampling.percentile(lo.latencies_ms(), 50)
    finally:
        fleet.close()
    return {"rate_lo_rps": round(rate_lo, 1),
            "rate_hi_rps": round(0.42 / service_s, 1),
            "latency_limit_ms": round(3 * lo_p50, 1)}


def main() -> int:
    scratch = record.OUT / "scratch-calibrate"
    suggested = {}
    try:
        for workload in fleets.WORKLOADS:
            shutil.rmtree(scratch, ignore_errors=True)
            scratch.mkdir(parents=True)
            try:
                suggested[workload] = calibrate(workload, scratch)
            finally:
                shutil.rmtree(scratch, ignore_errors=True)
    finally:
        record.stop_children()
    print(json.dumps(suggested, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
