import compare


def metric(value, spread=0.01, direction="lower", bound=0.1, segments=()):
    return {"value": value, "unit": "ms", "direction": direction,
            "bound": bound, "spread": spread, "n": 10,
            "segments": list(segments)}


def test_verdicts_follow_the_bound_and_the_direction():
    assert compare.verdict(metric(10.0), metric(10.5)) == "within bound"
    assert compare.verdict(metric(10.0), metric(11.5)) == "worse"
    assert compare.verdict(metric(10.0), metric(8.0)) == "better"
    up = dict(direction="higher")
    assert compare.verdict(metric(10.0, **up), metric(8.0, **up)) == "worse"
    assert compare.verdict(metric(10.0, **up), metric(12.0, **up)) == "better"


def test_a_spread_wider_than_the_bound_is_unresolved():
    assert compare.verdict(metric(10.0, spread=0.2),
                           metric(13.0)) == "unresolved"
    assert compare.verdict(metric(10.0),
                           metric(13.0, spread=0.2)) == "unresolved"


def test_unresolved_yields_when_every_segment_is_better():
    a = metric(10.0, spread=0.2, segments=[9.0, 10.0, 12.0])
    b = metric(6.0, spread=0.2, segments=[5.0, 6.0, 8.0])
    assert compare.verdict(a, b) == "better"
    overlapping = metric(6.0, spread=0.2, segments=[5.0, 6.0, 9.5])
    assert compare.verdict(a, overlapping) == "unresolved"


def test_rows_cover_every_metric_of_every_workload_and_gate_the_exit():
    def rec(value):
        return {"workloads": {
            w: {"end_to_end": {"lo.latency_p50_ms": metric(value),
                               "setup_s": metric(1.0, bound=0.25)}}
            for w in ("compute_bound", "link_bound")}}

    table = compare.rows(rec(10.0), rec(12.0))
    assert len(table) == 4
    assert {r["verdict"] for r in table
            if r["metric"] == "lo.latency_p50_ms"} == {"worse"}
    assert {r["verdict"] for r in table
            if r["metric"] == "setup_s"} == {"within bound"}
