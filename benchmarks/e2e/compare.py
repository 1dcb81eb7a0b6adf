"""Compare two e2e records: one row per (end-to-end metric, workload).

    python3 benchmarks/e2e/compare.py A.json B.json

``A`` is the baseline (the parent commit, or an earlier run of the same
code), ``B`` the candidate; both are records as ``run.py`` writes them
(``record.json``).  Each row reads, using the bound stored in ``A``:

* ``better`` / ``worse``     — B's value differs from A's by more than
  the bound, in the metric's good / bad direction;
* ``within bound``           — it does not;
* ``unresolved``             — either side's own spread (quartile
  distance over median, across its segments) is wider than the bound, so
  a difference of that size is not evidence — unless every segment of B
  reads better than every segment of A, which is ``better``.  The
  metrics a record lists as unresolved (measured, but too unsteady on
  this host for any bound) are shown with this verdict and no bound.

Exits 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import sys


def verdict(a: dict, b: dict) -> str:
    """Judge one metric; ``a`` and ``b`` are stamped measurements."""
    bound = a["bound"]
    lower = a["direction"] == "lower"
    if bound is None or max(a["spread"], b["spread"]) > bound:
        if a["segments"] and b["segments"]:
            clear = (max(b["segments"]) < min(a["segments"]) if lower
                     else min(b["segments"]) > max(a["segments"]))
            if clear:
                return "better"
        return "unresolved"
    change = (b["value"] - a["value"]) / abs(a["value"])
    worse_by = change if lower else -change
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "within bound"


def rows(a: dict, b: dict) -> list[dict]:
    out = []
    for workload, measured in a["workloads"].items():
        theirs = b["workloads"].get(workload, {})
        other = {**theirs.get("end_to_end", {}),
                 **theirs.get("unresolved", {})}
        mine = {**measured["end_to_end"], **measured.get("unresolved", {})}
        for name, metric in mine.items():
            if name not in other:
                continue
            out.append({"workload": workload, "metric": name,
                        "a": metric["value"], "b": other[name]["value"],
                        "bound": metric["bound"],
                        "spread": max(metric["spread"],
                                      other[name]["spread"]),
                        "verdict": verdict(metric, other[name])})
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    records = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            records.append(json.load(handle))
    table = rows(*records)
    print(f"{'workload':16s}{'metric':24s}{'A':>12s}{'B':>12s}  "
          f"{'change':>8s} {'bound':>6s} {'spread':>7s}  verdict")
    for row in table:
        change = (row["b"] - row["a"]) / abs(row["a"])
        bound = "-" if row["bound"] is None else f"{row['bound']:.2f}"
        print(f"{row['workload']:16s}{row['metric']:24s}{row['a']:12.4f}"
              f"{row['b']:12.4f}  {change:+8.1%} {bound:>6s} "
              f"{row['spread']:7.3f}  {row['verdict']}")
    return 1 if any(row["verdict"] == "worse" for row in table) else 0


if __name__ == "__main__":
    sys.exit(main())
