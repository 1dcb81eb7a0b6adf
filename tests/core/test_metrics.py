"""Metric/table formatting tests."""

import pytest

from repro.core import metrics
from repro.core.metrics import format_mean_std, format_table, mean_std


class TestFormatTable:
    def test_renders_header_and_rows(self):
        out = format_table([{"a": 1, "b": 2.5}, {"a": 10, "b": 0.125}])
        lines = out.splitlines()
        assert lines[0].startswith("a")
        assert len(lines) == 4  # header, rule, 2 rows

    def test_columns_in_first_seen_order(self):
        out = format_table([{"b": 1}, {"a": 2, "b": 3}])
        assert out.splitlines()[0].split() == ["b", "a"]

    def test_missing_cell_is_blank(self):
        out = format_table([{"a": 1}, {"a": 2, "b": 3}])
        assert "3" in out

    def test_empty_rows(self):
        assert format_table([]) == "(empty table)"

    def test_float_formatting(self, monkeypatch):
        monkeypatch.setattr(metrics, "FLOAT_FORMAT", ".2f")
        out = format_table([{"v": 1.23456789}])
        assert "1.23" in out and "1.235" not in out


class TestStats:
    def test_mean_std(self):
        mean, std = mean_std([1.0, 2.0, 3.0])
        assert mean == pytest.approx(2.0)
        assert std == pytest.approx((2.0 / 3.0) ** 0.5)

    def test_single_value(self):
        mean, std = mean_std([5.0])
        assert mean == 5.0
        assert std == 0.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            mean_std([])

    def test_format_mean_std_paper_style(self):
        out = format_mean_std([0.8911, 0.8909, 0.8913])
        assert out.startswith("89.1")
        assert "±" in out
