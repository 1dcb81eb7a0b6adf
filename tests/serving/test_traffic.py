"""Arrival traces and traffic generators."""

import json

import pytest

from repro.cli import main
from repro.serving.traffic import (
    ArrivalTrace,
    burst_trace,
    diurnal_trace,
    flash_crowd_trace,
    mmpp_trace,
    poisson_trace,
)


HEADER = '{"format": "repro.arrivals.v1", "num_requests": 1}'


class TestArrivalTrace:
    def test_validates_sorted_finite_nonnegative(self):
        with pytest.raises(ValueError):
            ArrivalTrace(())
        with pytest.raises(ValueError):
            ArrivalTrace((1.0, 0.5))
        with pytest.raises(ValueError):
            ArrivalTrace((-0.1, 0.5))
        with pytest.raises(ValueError):
            ArrivalTrace((0.0, float("nan")))

    def test_stats(self):
        trace = ArrivalTrace((0.0, 1.0, 2.0, 4.0))
        assert trace.num_requests == 4
        assert trace.duration == 4.0
        assert trace.mean_rps == 1.0
        assert ArrivalTrace((0.0,)).mean_rps == 0.0

    def test_split_round_robin_preserves_times(self):
        trace = ArrivalTrace(tuple(float(i) for i in range(10)))
        shards = trace.split_round_robin(3)
        assert [s.num_requests for s in shards] == [4, 3, 3]
        assert shards[0].arrivals == (0.0, 3.0, 6.0, 9.0)
        merged = sorted(t for s in shards for t in s.arrivals)
        assert tuple(merged) == trace.arrivals
        with pytest.raises(ValueError):
            trace.split_round_robin(11)
        with pytest.raises(ValueError):
            trace.split_round_robin(0)

    def test_jsonl_round_trip(self, tmp_path):
        trace = poisson_trace(50, 5, seed=3)
        path = tmp_path / "trace.jsonl"
        trace.to_jsonl(path)
        header = json.loads(path.read_text().splitlines()[0])
        assert header["format"] == "repro.arrivals.v1"
        assert header["num_requests"] == trace.num_requests
        assert ArrivalTrace.from_jsonl(path) == trace

    def test_jsonl_rejects_bad_header_and_count(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"format": "other.v1"}\n{"t": 0.0}\n')
        with pytest.raises(ValueError, match="format"):
            ArrivalTrace.from_jsonl(path)
        path.write_text('{"format": "repro.arrivals.v1", "num_requests": 2}\n'
                        '{"t": 0.0}\n')
        with pytest.raises(ValueError, match="arrivals"):
            ArrivalTrace.from_jsonl(path)


    @pytest.mark.parametrize("lines, arrivals", [
        ([HEADER, '{"t": 0}'], (0.0,)),
        ([HEADER.replace("1}", "2}"), '{"t": 0.5}', '{"t": 0.5}'],
         (0.5, 0.5)),
        ([HEADER, "", '{"t": 2, "extra": "ignored"}', ""], (2.0,)),
    ], ids=["int-t", "equal-times", "blank-lines-and-extra-keys"])
    def test_jsonl_admits_what_a_trace_allows(self, tmp_path, lines,
                                               arrivals):
        path = tmp_path / "ok.jsonl"
        path.write_text("\n".join(lines) + "\n")
        assert ArrivalTrace.from_jsonl(path).arrivals == arrivals

    @pytest.mark.parametrize("lines, where", [
        (["[1]", '{"t": 0.0}'], ":1: expected a JSON object"),
        (["{", '{"t": 0.0}'], ":1: not JSON"),
        ([HEADER, '{"s": 0.0}'], ":2: "),
        ([HEADER, "[0.5]"], ":2: expected a JSON object"),
        ([HEADER, '{"t": null}'], ":2: "),
        ([HEADER, '{"t": "0.5"}'], ":2: "),
        ([HEADER, '{"t": true}'], ":2: "),
        ([HEADER, '{"t": NaN}'], ":2: "),
        ([HEADER, '{"t": -1.0}'], ":2: "),
        ([HEADER, '{"t": 1' + "0" * 400 + "}"], ":2: "),
        ([HEADER.replace("1}", "2}"), '{"t": 0.5}', '{"t": 0.25}'], ":3: "),
        (['{"format": "repro.arrivals.v1", "num_requests": 0}'],
         ": a trace must contain"),
    ], ids=["list-header", "broken-json", "no-t", "list-line", "null-t",
            "string-t", "bool-t", "nan-t", "negative-t", "huge-int-t",
            "unsorted", "no-arrivals"])
    def test_malformed_jsonl_names_the_file_and_line(self, tmp_path, capsys,
                                                     lines, where):
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as exc:
            ArrivalTrace.from_jsonl(path)
        message = str(exc.value)
        assert message.startswith(f"{path}{where}")
        # The CLI exits with that one line, not a traceback.
        with pytest.raises(SystemExit) as exit_:
            main(["capacity", "--trace-file", str(path)])
        assert exit_.value.code == message

    def test_capacity_exits_on_a_missing_trace_file(self, tmp_path):
        path = tmp_path / "missing.jsonl"
        with pytest.raises(SystemExit) as exit_:
            main(["capacity", "--trace-file", str(path)])
        assert exit_.value.code.endswith(f"No such file or directory: "
                                         f"'{path}'")


class TestGenerators:
    def test_poisson_rate_roughly_honoured(self):
        trace = poisson_trace(100, 20, seed=0)
        assert trace.arrivals[-1] < 20
        assert trace.mean_rps == pytest.approx(100, rel=0.15)

    def test_generators_deterministic_in_seed(self):
        for make in (lambda s: poisson_trace(40, 10, seed=s),
                     lambda s: mmpp_trace([10, 100], 2, 10, seed=s),
                     lambda s: diurnal_trace(10, 80, 10, 10, seed=s),
                     lambda s: burst_trace(10, 100, 4, 1, 10, seed=s),
                     lambda s: flash_crowd_trace(10, 100, 2, 1, 10, seed=s)):
            assert make(5) == make(5)
            assert make(5) != make(6)

    def test_burst_raises_rate_inside_bursts(self):
        trace = burst_trace(base_rps=5, burst_rps=200, burst_every_s=10,
                            burst_duration_s=2, duration_s=40, seed=2)
        in_burst = sum(1 for t in trace.arrivals
                       if (t % 10) >= 8)
        calm = trace.num_requests - in_burst
        # 8 calm seconds at ~5 rps vs 2 burst seconds at ~200 rps per
        # period: the bursts must dominate despite 4x less wall time.
        assert in_burst > 3 * calm

    def test_flash_crowd_spikes_after_onset(self):
        trace = flash_crowd_trace(base_rps=5, peak_rps=300, onset_s=10,
                                  decay_s=3, duration_s=30, seed=4)
        before = sum(1 for t in trace.arrivals if t < 10)
        after = sum(1 for t in trace.arrivals if 10 <= t < 20)
        assert after > 5 * max(before, 1)

    def test_mmpp_visits_multiple_rates(self):
        trace = mmpp_trace([2, 200], mean_dwell_s=2, duration_s=40, seed=1)
        # Per-second counts must show both regimes: near-idle seconds and
        # busy seconds, or the modulation is not happening.
        counts = [0] * 40
        for t in trace.arrivals:
            counts[int(t)] += 1
        assert min(counts) < 10 < max(counts)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            poisson_trace(0, 10)
        with pytest.raises(ValueError):
            mmpp_trace([50], 1, 10)
        with pytest.raises(ValueError):
            diurnal_trace(100, 50, 10, 10)
        with pytest.raises(ValueError):
            burst_trace(10, 5, 10, 2, 30)
        with pytest.raises(ValueError):
            burst_trace(10, 100, 2, 5, 30)
        with pytest.raises(ValueError):
            flash_crowd_trace(10, 100, 50, 3, 30)
