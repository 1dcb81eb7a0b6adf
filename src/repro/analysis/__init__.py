"""Project-specific static analysis (``repro check``).

Parses ``src/repro`` into per-module ASTs (:class:`Project`), runs a
fixed table of rules (:mod:`repro.analysis.rules`), and reports
:class:`Finding`\\ s against a committed baseline of accepted
pre-existing findings.  See ``docs/architecture.md`` ("Static analysis")
for the rule catalogue and the baseline workflow.
"""

from .baseline import (
    BaselineEntry,
    BaselineError,
    Comparison,
    compare,
    load_baseline,
    save_baseline,
)
from .driver import (
    BASELINE_FILENAME,
    check_against_baseline,
    default_baseline_path,
    default_root,
    run_check,
)
from .finding import Finding, sort_findings
from .project import ModuleInfo, ParseFailure, Project
from .registry import Rule, make_rules, rule_classes

__all__ = [
    "BASELINE_FILENAME",
    "BaselineEntry",
    "BaselineError",
    "Comparison",
    "Finding",
    "ModuleInfo",
    "ParseFailure",
    "Project",
    "Rule",
    "check_against_baseline",
    "compare",
    "default_baseline_path",
    "default_root",
    "load_baseline",
    "make_rules",
    "rule_classes",
    "run_check",
    "save_baseline",
    "sort_findings",
]
