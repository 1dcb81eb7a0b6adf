"""Pluggable rule registry.

A rule is a class with a stable ``name`` (used by ``repro check
--rules``), a prose ``description``, and ``check_module`` /
``check_project`` hooks returning :class:`~repro.analysis.finding.
Finding` lists.  Registration mirrors the project's other extension
points (``register_codec``, ``register_model_kind``): decorate the class
with :func:`register_rule` at import time.

Built-in rules live in :mod:`repro.analysis.rules` and self-register
when that package imports; :func:`rule_classes` triggers the import
lazily so merely importing :mod:`repro.analysis` stays cheap.
"""

from __future__ import annotations

from .finding import Finding
from .project import ModuleInfo, Project


class Rule:
    """Base class for analysis rules (subclass and register)."""

    name = ""                          # stable selector, e.g. "lock-discipline"
    description = ""
    finding_ids: tuple[str, ...] = ()  # the rule ids this rule may emit

    def check_project(self, project: Project) -> list[Finding]:
        """Project-wide pass; defaults to mapping over modules."""
        findings: list[Finding] = []
        for module in project.modules:
            findings.extend(self.check_module(module, project))
        return findings

    def check_module(self, module: ModuleInfo,
                     project: Project) -> list[Finding]:
        return []


_RULES: dict[str, type[Rule]] = {}


def register_rule(cls: type[Rule]) -> type[Rule]:
    if not cls.name:
        raise ValueError(f"rule class {cls.__name__} has no name")
    _RULES[cls.name] = cls
    return cls


def rule_classes() -> dict[str, type[Rule]]:
    """All registered rules (importing the built-ins on first use)."""
    from . import rules as _builtin  # noqa: F401  (self-registering)

    return dict(sorted(_RULES.items()))


def make_rules(names: list[str] | None = None) -> list[Rule]:
    """Instantiate the selected rules (all of them when ``names`` is None).

    Raises ``ValueError`` for an unknown rule name — the CLI maps that to
    a usage error (exit code 2).
    """
    classes = rule_classes()
    if names is None:
        return [cls() for cls in classes.values()]
    selected: list[Rule] = []
    for name in names:
        if name not in classes:
            raise ValueError(f"unknown rule {name!r}; "
                             f"available: {', '.join(classes)}")
        selected.append(classes[name]())
    return selected
