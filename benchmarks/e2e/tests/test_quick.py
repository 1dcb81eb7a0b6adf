import json
import subprocess
import sys

import pytest

import fleets
import record


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(fleets.WORKLOADS))
def test_quick_run_finishes_and_emits_every_listed_metric(workload, trace):
    done = subprocess.run(
        [sys.executable, str(record.HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--trace", str(trace), "--quick"],
        cwd=record.ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = record.load_benchmark()
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
