import copy

import pytest

import fleets
import record


def test_benchmark_json_meets_the_contract():
    spec = record.load_benchmark()
    record.validate_benchmark(spec)
    assert [w["name"] for w in spec["workloads"]] == list(fleets.WORKLOADS)
    assert spec["paths"] == ["benchmarks/e2e"]
    assert spec["command"] == ["python3", "benchmarks/e2e/run.py"]


def test_every_workload_has_frozen_rates_and_a_limit():
    for workload in fleets.WORKLOADS:
        frozen = fleets.frozen_load(workload)
        assert set(frozen) == {"rate_lo_rps", "rate_hi_rps",
                               "latency_limit_ms"}
        assert 0 < frozen["rate_lo_rps"] < frozen["rate_hi_rps"]


@pytest.mark.parametrize("mutate", [
    lambda s: s.update(extra=1),
    lambda s: s["end_to_end"][0].update(bound=0.3),
    lambda s: s["end_to_end"][0].update(name="has space"),
    lambda s: s["per_layer"][0].update(unit="way-too-long-a-unit-name"),
    lambda s: s["per_layer"].append(dict(s["per_layer"][0])),
    lambda s: s.update(run_seconds=61),
    lambda s: s.update(workloads=s["workloads"][:1]),
    lambda s: s.update(end_to_end=[m for m in s["end_to_end"]
                                   if m["name"] != "setup_s"]),
])
def test_a_spec_outside_the_limits_is_refused(mutate):
    spec = copy.deepcopy(record.load_benchmark())
    mutate(spec)
    with pytest.raises(ValueError):
        record.validate_benchmark(spec)


def test_stamp_refuses_a_run_that_skipped_a_listed_metric():
    specs = [{"name": "a.b_ms", "unit": "ms", "better": "lower",
              "bound": 0.1}]
    stamped = record.stamp({"a.b_ms": {"value": 1, "spread": 0.02, "n": 5,
                                       "segments": [1, 1]},
                            "unlisted": {"value": 2}}, specs)
    assert stamped == {"a.b_ms": {"value": 1.0, "unit": "ms",
                                  "direction": "lower", "bound": 0.1,
                                  "spread": 0.02, "n": 5,
                                  "segments": [1.0, 1.0]}}
    with pytest.raises(ValueError):
        record.stamp({}, specs)


def test_result_line_refuses_nan():
    stamped = {"x": {"value": float("nan"), "unit": "ms"}}
    with pytest.raises(ValueError):
        record.result_line(True, 1, 0, stamped)
