"""Record schema of the e2e benchmark: metric specs, fingerprint, files.

``BENCHMARK.json`` at the repository root is the contract — command,
workloads, and every metric's unit, direction and regression bound.
This module reads the metric specs from it (they are written down once,
there), stamps each measured value with them, and validates the file
against the contract's limits.

Three kinds of file leave a run, all ``json.dumps(allow_nan=False)``:

* ``out/<workload>.trace<0|1>.json`` — one workload, one trace mode
  (git-ignored; what ``--workload`` runs write);
* ``record.json`` — all workloads of the latest full run, committed;
* ``history.jsonl`` — one line per full run, appended.
"""

from __future__ import annotations

import json
import os
import platform
import re
import signal
import subprocess
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"
OUT = HERE / "out"
RECORD = HERE / "record.json"
HISTORY = HERE / "history.jsonl"
SCHEMA = "e2e-record.v1"

THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
BENCHMARK_KEYS = {"command", "paths", "run_seconds", "workloads",
                  "end_to_end", "per_layer"}


def pin_threads() -> None:
    """Pin every numeric library to one thread, for this process and the
    workers it spawns: the fleets put one worker on each core, and a BLAS
    pool per worker would oversubscribe them.  Call before importing
    numpy (this module deliberately does not import it at the top)."""
    for name in THREAD_PINS:
        os.environ[name] = "1"


def _child_pids() -> list[int]:
    """Direct children of this process, unreaped ones too, from ``/proc``."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                # pid (comm) state ppid ...; comm may hold spaces.
                ppid = handle.read().rpartition(")")[2].split()[1]
        except OSError:
            continue                   # gone between listdir and open
        if int(ppid) == me:
            found.append(int(entry))
    return found


def stop_children(grace_s: float = 5.0) -> None:
    """Leave no process behind: call on every path out of the benchmark.

    ``EdgeCluster`` joins its workers, but the ``spawn`` context also
    starts multiprocessing's resource tracker, which only exits once its
    pipe reaches end-of-file — i.e. *after* this process has gone, so a
    look at the process table right after a run still finds it.  Close
    the pipe here, give every remaining child ``grace_s`` to end, kill
    what has not, and reap each one.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for process in multiprocessing.active_children():
        process.terminate()
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        os.close(tracker._fd)
        tracker._fd = None
    deadline = time.monotonic() + grace_s
    while True:
        multiprocessing.active_children()          # reaps the finished
        pids = _child_pids()
        for pid in pids:
            try:
                if time.monotonic() > deadline:
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, os.WNOHANG)
            except (ChildProcessError, ProcessLookupError):
                pass
        if not pids or time.monotonic() > deadline + grace_s:
            break
        time.sleep(0.01)
    tracker._pid = None


def load_benchmark() -> dict:
    with open(BENCHMARK, encoding="utf-8") as handle:
        return json.load(handle)


def validate_benchmark(spec: dict) -> None:
    """Raise ``ValueError`` where ``spec`` breaks the contract's limits."""
    def check(ok: bool, what: str) -> None:
        if not ok:
            raise ValueError(f"BENCHMARK.json: {what}")

    check(set(spec) == BENCHMARK_KEYS, f"keys must be {sorted(BENCHMARK_KEYS)}")
    check(1 <= len(spec["paths"]) <= 16, "1 to 16 paths")
    check(isinstance(spec["run_seconds"], int)
          and 1 <= spec["run_seconds"] <= 60, "run_seconds in 1..60")
    check(2 <= len(spec["workloads"]) <= 8, "2 to 8 workloads")
    check(1 <= len(spec["end_to_end"]) <= 16, "1 to 16 end-to-end metrics")
    check(1 <= len(spec["per_layer"]) <= 128, "1 to 128 per-layer metrics")
    names = []
    for workload in spec["workloads"]:
        check(set(workload) == {"name", "why"}, "workload keys name, why")
        check(len(workload["why"]) <= 200 and "\n" not in workload["why"],
              "why is one line of at most 200 characters")
        names.append(workload["name"])
    for metric in spec["end_to_end"]:
        check(set(metric) == {"name", "unit", "better", "bound"},
              "end-to-end metric keys name, unit, better, bound")
        check(0 < metric["bound"] <= 0.25, "bound in (0, 0.25]")
    for metric in spec["per_layer"]:
        check(set(metric) == {"name", "unit", "better"},
              "per-layer metric keys name, unit, better")
    for metric in spec["end_to_end"] + spec["per_layer"]:
        check(UNIT.fullmatch(metric["unit"]) is not None,
              f"bad unit {metric['unit']!r}")
        check(metric["better"] in ("higher", "lower"), "better: higher|lower")
        names.append(metric["name"])
    for name in names:
        check(NAME.fullmatch(name) is not None, f"bad name {name!r}")
    check(len(set(names)) == len(names), "a name is used once")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(len(setup) == 1 and setup[0]["unit"] == "s"
          and setup[0]["better"] == "lower", "setup_s in s, lower is better")
    check(len(json.dumps(spec)) <= 64 * 1024, "at most 64 KiB")


def stamp(values: dict[str, dict], specs: list[dict]) -> dict[str, dict]:
    """The metrics ``specs`` lists, each measurement stamped with its
    unit / direction / bound; every listed name must have been measured."""
    missing = sorted({s["name"] for s in specs} - set(values))
    if missing:
        raise ValueError(f"metrics BENCHMARK.json lists but the run did "
                         f"not measure: {missing}")
    out = {}
    for spec in specs:
        measured = values[spec["name"]]
        out[spec["name"]] = {
            "value": float(measured["value"]), "unit": spec["unit"],
            "direction": spec["better"], "bound": spec.get("bound"),
            "spread": float(measured.get("spread", 0.0)),
            "n": int(measured.get("n", 1)),
            "segments": [float(v) for v in measured.get("segments", [])]}
    return out


def result_line(correct: bool, attempted: int, failed: int,
                stamped: dict[str, dict]) -> str:
    """The contract's last line of standard output."""
    return json.dumps(
        {"correct": bool(correct), "attempted": int(attempted),
         "failed": int(failed),
         "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                     for name, m in stamped.items()}},
        allow_nan=False)


# ----------------------------------------------------------------------
def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _blas_build() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):      # numpy without mode= / other layout
        return "unknown"


def fingerprint(seed: int, seconds: float, frozen: dict) -> dict:
    """Where and how a record was taken."""
    import numpy as np

    status = _git("status", "--porcelain")
    return {"git_sha": _git("rev-parse", "HEAD") or "unknown",
            "git_dirty": None if status is None else bool(status),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": _blas_build(),
            "machine": platform.machine(),
            "nproc": len(os.sched_getaffinity(0)),
            "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
            "seed": seed, "seconds": seconds, "frozen": frozen}


def write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, allow_nan=False)
        handle.write("\n")


def append_history(payload: dict) -> None:
    with open(HISTORY, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(payload, allow_nan=False) + "\n")
