"""Digest-schema stability for artifact rebuild recipes.

Warm boot (:mod:`repro.store`) keys artifacts by the SHA-256 of a
recipe's canonical JSON; a recipe value that is not statically
canonical-JSON-safe can make digests flap (float repr drift, numpy
scalars, object ids), and a digest-*excluded* knob leaking into a
recipe silently orphans every existing artifact.  This rule checks the
recipe constructors — any function whose name ends in ``_recipe`` —
plus every call site:

* **DIGEST001** — a dict literal built inside a recipe constructor must
  use string-literal keys and values built from JSON-safe literals or
  explicit coercions (``str()``/``int()``/``float()``/``bool()``/
  ``dict()``/``list()``/``sorted()``, conditionals and comprehensions
  thereof).  A bare variable is not verifiable and must be coerced.
* **DIGEST002** — digest-excluded knobs (codec, mapping, scoring — the
  things a replan may change without invalidating artifacts) must not
  appear as recipe keys or recipe-constructor keyword arguments.
"""

from __future__ import annotations

import ast

from ..finding import Finding
from ..project import ModuleInfo, Project
from ..registry import Rule

RECIPE_SUFFIX = "_recipe"

# Knobs deliberately outside the digest: changing them must keep every
# existing artifact addressable (see DeploymentPlan.submodel_recipe).
EXCLUDED_KEYS = frozenset({"codec", "mapping", "scoring"})

SAFE_COERCIONS = frozenset({"str", "int", "float", "bool", "dict", "list",
                            "sorted", "tuple"})


def _is_safe_value(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant):
        return node.value is None or isinstance(node.value,
                                                (bool, int, float, str))
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Name) \
            and node.func.id in SAFE_COERCIONS
    if isinstance(node, ast.IfExp):
        return _is_safe_value(node.body) and _is_safe_value(node.orelse)
    if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
        return all(_is_safe_value(e) for e in node.elts)
    if isinstance(node, ast.Dict):
        return all(k is not None and _is_safe_value(k) for k in node.keys) \
            and all(_is_safe_value(v) for v in node.values)
    if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.SetComp)):
        return _is_safe_value(node.elt)
    if isinstance(node, ast.DictComp):
        return _is_safe_value(node.key) and _is_safe_value(node.value)
    return False


class DigestSchemaRule(Rule):
    name = "digest-schema"
    description = ("recipe constructors must build canonical-JSON-safe "
                   "dicts and keep digest-excluded keys out")
    finding_ids = ("DIGEST001", "DIGEST002")

    def check_module(self, module: ModuleInfo,
                     project: Project) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node.name.endswith(RECIPE_SUFFIX):
                findings.extend(self._check_constructor(module, node))
            if isinstance(node, ast.Call):
                callee = node.func
                callee_name = callee.attr if isinstance(callee, ast.Attribute) \
                    else callee.id if isinstance(callee, ast.Name) else None
                if callee_name and callee_name.endswith(RECIPE_SUFFIX):
                    for keyword in node.keywords:
                        if keyword.arg in EXCLUDED_KEYS:
                            findings.append(Finding(
                                "DIGEST002", "error", module.path,
                                node.lineno,
                                f"digest-excluded key {keyword.arg!r} passed "
                                f"to recipe constructor '{callee_name}'",
                                hint="codec/mapping/scoring must stay out "
                                     "of the digest; drop the argument"))
        return findings

    def _check_constructor(self, module: ModuleInfo,
                           fn: ast.AST) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(fn):
            if isinstance(node, ast.Dict):
                findings.extend(self._check_dict(module, fn, node))
            elif isinstance(node, ast.Assign):
                # recipe["key"] = value extensions of an already-built dict
                for target in node.targets:
                    if isinstance(target, ast.Subscript) \
                            and isinstance(target.slice, ast.Constant) \
                            and isinstance(target.slice.value, str):
                        findings.extend(self._check_pair(
                            module, fn, target.slice.value, node.value,
                            node.lineno))
        return findings

    def _check_dict(self, module: ModuleInfo, fn, node: ast.Dict):
        findings: list[Finding] = []
        for key, value in zip(node.keys, node.values):
            if key is None:            # **splat: contents unverifiable
                findings.append(Finding(
                    "DIGEST001", "error", module.path, node.lineno,
                    f"recipe constructor '{fn.name}' splats **kwargs into a "
                    f"recipe dict; keys cannot be verified",
                    hint="name every recipe key explicitly"))
                continue
            if not (isinstance(key, ast.Constant)
                    and isinstance(key.value, str)):
                findings.append(Finding(
                    "DIGEST001", "error", module.path, key.lineno,
                    f"recipe constructor '{fn.name}' uses a non-literal "
                    f"dict key",
                    hint="recipe keys must be string literals so the "
                         "schema is auditable"))
                continue
            findings.extend(self._check_pair(module, fn, key.value, value,
                                             value.lineno))
        return findings

    def _check_pair(self, module: ModuleInfo, fn, key: str,
                    value: ast.expr, line: int) -> list[Finding]:
        findings: list[Finding] = []
        if key in EXCLUDED_KEYS:
            findings.append(Finding(
                "DIGEST002", "error", module.path, line,
                f"digest-excluded key {key!r} appears in recipe "
                f"constructor '{fn.name}'",
                hint="codec/mapping/scoring must stay out of the digest so "
                     "replans keep their artifacts"))
        if not _is_safe_value(value):
            findings.append(Finding(
                "DIGEST001", "error", module.path, line,
                f"recipe key {key!r} in '{fn.name}' is not statically "
                f"canonical-JSON-safe",
                hint="wrap the value in an explicit str()/int()/float()/"
                     "dict()/list() coercion"))
        return findings
