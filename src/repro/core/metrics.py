"""Result tables: plain-text rendering of experiment rows.

Benchmarks print the same rows/series the paper reports; these helpers
keep that presentation consistent and dependency-free.
"""

from __future__ import annotations

from typing import Any, Sequence

# How a float cell renders.
FLOAT_FORMAT = ".4g"


def format_table(rows: Sequence[dict[str, Any]]) -> str:
    """Render dict-rows as an aligned text table, one column per key in
    first-seen order."""
    if not rows:
        return "(empty table)"
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)

    def cell(value: Any) -> str:
        if isinstance(value, float):
            return format(value, FLOAT_FORMAT)
        return str(value)

    rendered = [[cell(row.get(col, "")) for col in columns] for row in rows]
    widths = [max(len(col), *(len(r[i]) for r in rendered))
              for i, col in enumerate(columns)]
    header = "  ".join(col.ljust(w) for col, w in zip(columns, widths))
    rule = "  ".join("-" * w for w in widths)
    body = "\n".join("  ".join(c.ljust(w) for c, w in zip(r, widths))
                     for r in rendered)
    return f"{header}\n{rule}\n{body}"


def mean_std(values: Sequence[float]) -> tuple[float, float]:
    """Mean and (population) standard deviation of a metric over trials."""
    if not values:
        raise ValueError("need at least one value")
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    return mean, var ** 0.5


def format_mean_std(values: Sequence[float]) -> str:
    """Render trials as the paper's ``mean±std`` percentage format."""
    mean, std = mean_std(values)
    return f"{mean * 100:.2f}±{std * 100:.2f}"
