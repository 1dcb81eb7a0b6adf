"""Wire-protocol shape conformance.

The parent↔worker protocol lives in :mod:`repro.edge.wire`; every other
module must build messages through its typed constructors and read them
through its accessors, so arity changes happen in exactly one file.

* **WIRE001** — a raw wire-tuple literal (first element is a known
  command tag) outside ``repro.edge.wire``;
* **WIRE002** — string-matching dispatch (``message[0] == "infer"`` or
  ``m[0] in ("ready", ...)``) instead of ``wire.command(...)`` against
  the named constants;
* **WIRE003** — drift between this rule's embedded arity table and the
  ``ARITY`` declared in ``wire.py`` (the checker and the protocol must
  be updated together), or a constructor whose tuple length falls
  outside the declared bounds.
"""

from __future__ import annotations

import ast

from ..finding import Finding
from ..project import ModuleInfo, Project
from ..registry import Rule

WIRE_MODULE = "repro.edge.wire"

# Mirrors repro.edge.wire.ARITY on purpose: WIRE003 cross-checks the two
# copies, so protocol evolution forces a conscious analyzer update.
EXPECTED_ARITY: dict[str, tuple[int, int]] = {
    "spec": (2, 2),
    "weights": (3, 3),
    "infer": (3, 4),
    "stop": (1, 1),
    "hello": (2, 2),
    "ready": (2, 2),
    "failed": (3, 3),
    "features": (4, 4),
    "error": (3, 3),
    "stopped": (2, 2),
}

COMMAND_TAGS = frozenset(EXPECTED_ARITY)


def _is_command_literal(node: ast.expr) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str) \
            and node.value in COMMAND_TAGS:
        return node.value
    return None


def _is_index_zero_subscript(node: ast.expr) -> bool:
    """``something[0]`` — the idiom for peeking at a message's command."""
    return isinstance(node, ast.Subscript) \
        and isinstance(node.slice, ast.Constant) \
        and node.slice.value == 0


class WireProtocolRule(Rule):
    name = "wire-protocol"
    description = ("wire tuples must be built and inspected only through "
                   "repro.edge.wire helpers; arity drift is flagged")
    finding_ids = ("WIRE001", "WIRE002", "WIRE003")

    def check_module(self, module: ModuleInfo,
                     project: Project) -> list[Finding]:
        if module.name == WIRE_MODULE:
            return self._check_wire_module(module)
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Tuple) and node.elts:
                tag = _is_command_literal(node.elts[0])
                # Arity filter: a real wire tuple has the declared shape;
                # unrelated tuples that merely start with a word like
                # "error" (severity lists etc.) do not.
                if tag is not None and EXPECTED_ARITY[tag][0] \
                        <= len(node.elts) <= EXPECTED_ARITY[tag][1]:
                    findings.append(Finding(
                        "WIRE001", "error", module.path, node.lineno,
                        f"raw wire tuple for command {tag!r} built outside "
                        f"repro.edge.wire",
                        hint=f"use wire.{tag}_message(...) so the message "
                             f"shape has a single owner"))
            elif isinstance(node, ast.Compare) \
                    and _is_index_zero_subscript(node.left):
                for comparator in node.comparators:
                    literals = comparator.elts \
                        if isinstance(comparator, ast.Tuple) else [comparator]
                    for lit in literals:
                        tag = _is_command_literal(lit)
                        if tag is not None:
                            findings.append(Finding(
                                "WIRE002", "error", module.path, node.lineno,
                                f"message dispatched by comparing "
                                f"element [0] against the string {tag!r}",
                                hint=f"compare wire.command(message) against "
                                     f"wire.{tag.upper()}"))
                            break
        return findings

    # ------------------------------------------------------------------
    def _check_wire_module(self, module: ModuleInfo) -> list[Finding]:
        """Cross-check wire.ARITY and the constructors against our copy."""
        findings: list[Finding] = []
        declared = self._declared_arity(module)
        if declared is not None and declared != EXPECTED_ARITY:
            changed = sorted(set(declared.items())
                             ^ set(EXPECTED_ARITY.items()))
            findings.append(Finding(
                "WIRE003", "error", module.path, 1,
                f"wire.ARITY drifted from the analyzer's copy "
                f"(differs on: {', '.join(tag for tag, _ in changed)})",
                hint="update EXPECTED_ARITY in "
                     "repro/analysis/rules/wire_protocol.py together with "
                     "the protocol change"))
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.FunctionDef) \
                    or not node.name.endswith("_message"):
                continue
            for ret in ast.walk(node):
                if not (isinstance(ret, ast.Return)
                        and isinstance(ret.value, ast.Tuple)
                        and ret.value.elts):
                    continue
                first = ret.value.elts[0]
                tag = first.id.lower() if isinstance(first, ast.Name) \
                    else _is_command_literal(first)
                bounds = EXPECTED_ARITY.get(tag or "")
                if bounds is None:
                    continue
                lo, hi = bounds
                if not lo <= len(ret.value.elts) <= hi:
                    findings.append(Finding(
                        "WIRE003", "error", module.path, ret.lineno,
                        f"constructor '{node.name}' returns a "
                        f"{len(ret.value.elts)}-tuple for {tag!r}; the "
                        f"protocol declares {lo}..{hi}",
                        hint="update ARITY and EXPECTED_ARITY together "
                             "with the constructor"))
        return findings

    def _declared_arity(self, module: ModuleInfo):
        for node in module.tree.body:
            targets = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            if not any(isinstance(t, ast.Name) and t.id == "ARITY"
                       for t in targets):
                continue
            value = node.value
            if not isinstance(value, ast.Dict):
                return None
            names = self._command_constants(module)
            out: dict[str, tuple[int, int]] = {}
            for key, bounds in zip(value.keys, value.values):
                tag = None
                if isinstance(key, ast.Name):
                    tag = names.get(key.id)
                elif isinstance(key, ast.Constant):
                    tag = key.value
                if tag is None or not isinstance(bounds, ast.Tuple) \
                        or len(bounds.elts) != 2 \
                        or not all(isinstance(e, ast.Constant)
                                   for e in bounds.elts):
                    return None
                out[tag] = (bounds.elts[0].value, bounds.elts[1].value)
            return out
        return None

    def _command_constants(self, module: ModuleInfo) -> dict[str, str]:
        """``INFER = "infer"``-style module constants."""
        out: dict[str, str] = {}
        for node in module.tree.body:
            if isinstance(node, ast.Assign) \
                    and isinstance(node.value, ast.Constant) \
                    and isinstance(node.value.value, str):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        out[target.id] = node.value.value
        return out
