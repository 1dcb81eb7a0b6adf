"""Observability naming taxonomy.

PR 7 fixed the metric/span grammar: dot.case names with at least two
segments for metrics (``subsystem.thing``), counters ending ``_total``,
histograms ending ``_seconds`` or ``_bytes`` so units are always in the
name.  Spans may be single-segment (the root ``request`` span).

* **OBS001** — a literal metric name that violates the grammar;
* **OBS002** — a literal span name that violates the grammar;
* **OBS003** — a metric registered under a non-literal name the checker
  cannot audit (warning).  f-strings are audited structurally by
  substituting a placeholder for each interpolation (``f"kernel.{op}_
  seconds"`` checks as ``kernel.x_seconds``); span helpers that forward
  a caller-supplied name are skipped, since the literal is checked at
  the originating call site.
"""

from __future__ import annotations

import ast
import re

from ..finding import Finding
from ..project import ModuleInfo, Project
from ..registry import Rule

SEGMENT = r"[a-z][a-z0-9_]*"
METRIC_RE = re.compile(rf"^{SEGMENT}(\.{SEGMENT})+$")   # >= 2 segments
SPAN_RE = re.compile(rf"^{SEGMENT}(\.{SEGMENT})*$")     # 1 segment ok

METRIC_METHODS = {
    "counter": ("_total",),
    "histogram": ("_seconds", "_bytes"),
    "gauge": (),
}
SPAN_CALLEES = frozenset({"emit", "span", "span_dict"})


def _literal_name(node: ast.expr) -> str | None:
    """A literal or f-string first argument, with interpolations
    replaced by ``x`` so the static shape can still be checked."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        parts = []
        for value in node.values:
            if isinstance(value, ast.Constant):
                parts.append(str(value.value))
            else:                      # FormattedValue placeholder
                parts.append("x")
        return "".join(parts)
    return None


def _callee_name(node: ast.Call) -> str | None:
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    if isinstance(node.func, ast.Name):
        return node.func.id
    return None


class ObsNamingRule(Rule):
    name = "obs-naming"
    description = ("metric names must be dot.case with unit suffixes "
                   "(_total/_seconds/_bytes); span names must be dot.case")
    finding_ids = ("OBS001", "OBS002", "OBS003")

    def check_module(self, module: ModuleInfo,
                     project: Project) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            callee = _callee_name(node)
            if callee in METRIC_METHODS:
                findings.extend(self._check_metric(module, node, callee))
            elif callee in SPAN_CALLEES:
                name = _literal_name(node.args[0])
                if name is not None and not SPAN_RE.match(name):
                    findings.append(Finding(
                        "OBS002", "error", module.path, node.lineno,
                        f"span name {name!r} is not dot.case",
                        hint="use lowercase dot.separated segments, e.g. "
                             "'request.queue'"))
        return findings

    def _check_metric(self, module: ModuleInfo, node: ast.Call,
                      kind: str) -> list[Finding]:
        name = _literal_name(node.args[0])
        if name is None:
            return [Finding(
                "OBS003", "warning", module.path, node.lineno,
                f"{kind} registered under a non-literal name; the taxonomy "
                f"cannot be audited statically",
                hint="pass a string literal (or f-string with literal "
                     "prefix/suffix) to the registry")]
        if not METRIC_RE.match(name):
            return [Finding(
                "OBS001", "error", module.path, node.lineno,
                f"{kind} name {name!r} is not dot.case with at least two "
                f"segments (subsystem.thing)",
                hint="name metrics '<subsystem>.<what>[_unit]', e.g. "
                     "'serving.requests_total'")]
        suffixes = METRIC_METHODS[kind]
        if suffixes and not name.endswith(suffixes):
            return [Finding(
                "OBS001", "error", module.path, node.lineno,
                f"{kind} name {name!r} must end with "
                + " or ".join(f"'{s}'" for s in suffixes),
                hint="encode the unit in the name so dashboards never "
                     "guess; rename or switch instrument kind")]
        return []
