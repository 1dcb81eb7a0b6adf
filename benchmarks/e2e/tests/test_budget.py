import pytest

import probes


def synthetic():
    return {"batcher.queue_wait_p50_ms": 2.0, "server.gather_p50_ms": 15.0,
            "server.fusion_p50_ms": 0.5, "transport.hop_ms": 1.5,
            "worker.host_compute_p50_ms": 6.0,
            "link.emulated_sleep_p50_ms": 6.5}


def test_budget_reconciles_both_levels():
    out = probes.budget(18.5, synthetic())
    # request = 2 + 15 + 0.5 = 17.5 of 18.5 served.
    assert out["budget.request_residual_ms"] == pytest.approx(1.0)
    # gather = 1.5 + 6 + 6.5 = 14 of 15 gathered.
    assert out["server.gather_overhead_ms"] == pytest.approx(1.0)
    assert out["budget.unattributed_ms"] == pytest.approx(2.0)
    assert out["budget.unattributed_share"] == pytest.approx(2.0 / 18.5)


def test_over_attribution_is_negative_not_hidden():
    m = synthetic()
    m["batcher.queue_wait_p50_ms"] = 6.0           # p50s need not add up
    out = probes.budget(18.5, m)
    assert out["budget.request_residual_ms"] == pytest.approx(-3.0)
    assert out["budget.unattributed_ms"] == pytest.approx(-2.0)
    assert out["budget.unattributed_share"] == pytest.approx(2.0 / 18.5)


def test_budget_lines_name_every_term():
    m = synthetic()
    m.update(probes.budget(18.5, m))
    text = "\n".join(probes.budget_lines(18.5, m))
    for name in list(synthetic()) + ["server.gather_overhead_ms",
                                     "budget.unattributed_ms"]:
        assert name in text


def test_span_log_records_parents_and_request_ids():
    log = probes.SpanLog()
    with log.span("outer") as outer:
        with log.span("inner") as inner:
            pass
    assert log.spans[inner]["parent"] == outer
    assert log.spans[outer]["parent"] is None
    assert log.spans[outer]["end"] >= log.spans[inner]["end"] > 0
    leaf = log.add("request", 1.0, 2.0, request_id=7)
    assert log.spans[leaf]["request_id"] == 7
