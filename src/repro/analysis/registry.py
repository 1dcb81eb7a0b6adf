"""The rule base class and the fixed rule table's lookups.

A rule is a class with a stable ``name`` (used by ``repro check
--rules``), a prose ``description``, and ``check_module`` /
``check_project`` hooks returning :class:`~repro.analysis.finding.
Finding` lists.  The rules ``repro check`` runs are exactly the
:data:`repro.analysis.rules.RULES` tuple; :func:`rule_classes` imports it
lazily so merely importing :mod:`repro.analysis` stays cheap.
"""

from __future__ import annotations

from .finding import Finding
from .project import ModuleInfo, Project


class Rule:
    """Base class for analysis rules (subclass and list in ``RULES``)."""

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


def rule_classes() -> dict[str, type[Rule]]:
    """Every rule, by name (the built-ins import on first use)."""
    from .rules import RULES

    return {cls.name: cls for cls in RULES}


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
