"""General hygiene: serialization safety, exception discipline,
thread lifecycle, and repository cleanliness.

* **HYG001** — ``pickle`` (arbitrary code execution on load; all repro
  artifacts are npz/JSON by design);
* **HYG002** — ``eval``/``exec`` of strings;
* **HYG003** — bare ``except:`` (swallows ``KeyboardInterrupt`` and
  ``SystemExit``; the serving loops must stay interruptible);
* **HYG004** — a ``Thread`` created without ``daemon=True`` and with no
  ``.join`` call in its enclosing scope (function, then class, then
  module) — such a thread can outlive shutdown and hang interpreter
  exit;
* **HYG005** — ``json.dump``/``json.dumps`` without ``allow_nan=False``
  (NaN/Infinity produce non-standard JSON that other readers reject;
  digests and manifests must be canonical);
* **HYG006** — tracked ``__pycache__``/``.pyc`` files in git
  (project-level; skipped when the scan root is not inside a work tree).
"""

from __future__ import annotations

import ast
import subprocess

from ..finding import Finding
from ..project import ModuleInfo, Project
from ..registry import Rule


def _has_keyword(node: ast.Call, name: str, value: object) -> bool:
    for keyword in node.keywords:
        if keyword.arg == name \
                and isinstance(keyword.value, ast.Constant) \
                and keyword.value.value is value:
            return True
    return False


def _is_thread_call(node: ast.Call) -> bool:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == "Thread"
    if isinstance(func, ast.Attribute):
        return func.attr == "Thread"
    return False


def _has_join(scope: ast.AST) -> bool:
    """Any ``x.join(...)`` on a non-string receiver within ``scope``."""
    for node in ast.walk(scope):
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "join" \
                and not isinstance(node.func.value, ast.Constant):
            return True
    return False


class HygieneRule(Rule):
    name = "hygiene"
    description = ("no pickle/eval/exec, no bare except, threads are "
                   "daemonic or joined, json writes reject NaN, no "
                   "tracked bytecode")
    finding_ids = ("HYG001", "HYG002", "HYG003", "HYG004", "HYG005",
                   "HYG006")

    def check_project(self, project: Project) -> list[Finding]:
        findings = super().check_project(project)
        findings.extend(self._check_tracked_bytecode(project))
        return findings

    def check_module(self, module: ModuleInfo,
                     project: Project) -> list[Finding]:
        findings: list[Finding] = []
        self._scan(module, module.tree, [module.tree], findings)
        return findings

    # ------------------------------------------------------------------
    def _scan(self, module: ModuleInfo, node: ast.AST,
              scopes: list[ast.AST], findings: list[Finding]) -> None:
        """Recurse tracking the enclosing scope chain for HYG004."""
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names]
            source = getattr(node, "module", None)
            if "pickle" in names or source == "pickle":
                findings.append(Finding(
                    "HYG001", "error", module.path, node.lineno,
                    "pickle imported; artifacts must stay npz/JSON",
                    hint="use repro.nn.serialization / the artifact store "
                         "instead of pickle"))
        elif isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) \
                    and node.func.id in ("eval", "exec"):
                findings.append(Finding(
                    "HYG002", "error", module.path, node.lineno,
                    f"call to {node.func.id}()",
                    hint="parse with ast / json instead of evaluating "
                         "strings"))
            elif _is_thread_call(node) \
                    and not _has_keyword(node, "daemon", True):
                if not any(_has_join(scope) for scope in reversed(scopes)):
                    findings.append(Finding(
                        "HYG004", "error", module.path, node.lineno,
                        "non-daemon Thread is never joined in its "
                        "enclosing scope",
                        hint="pass daemon=True or join the thread on "
                             "shutdown"))
            elif isinstance(node.func, ast.Attribute) \
                    and isinstance(node.func.value, ast.Name) \
                    and node.func.value.id == "json" \
                    and node.func.attr in ("dump", "dumps") \
                    and not _has_keyword(node, "allow_nan", False):
                findings.append(Finding(
                    "HYG005", "error", module.path, node.lineno,
                    f"json.{node.func.attr} without allow_nan=False",
                    hint="NaN/Infinity are not JSON; pass allow_nan=False "
                         "so bad floats fail loudly at write time"))
        elif isinstance(node, ast.ExceptHandler) and node.type is None:
            findings.append(Finding(
                "HYG003", "error", module.path, node.lineno,
                "bare except: swallows KeyboardInterrupt/SystemExit",
                hint="catch Exception (or something narrower)"))

        opens_scope = isinstance(node, (ast.FunctionDef,
                                        ast.AsyncFunctionDef,
                                        ast.ClassDef))
        if opens_scope:
            scopes = scopes + [node]
        for child in ast.iter_child_nodes(node):
            self._scan(module, child, scopes, findings)

    # ------------------------------------------------------------------
    def _check_tracked_bytecode(self, project: Project) -> list[Finding]:
        if project.root is None:
            return []
        try:
            proc = subprocess.run(
                ["git", "ls-files", "--", ":/"],
                cwd=project.root, capture_output=True, text=True,
                timeout=10, check=False)
        except (OSError, subprocess.SubprocessError):
            return []
        if proc.returncode != 0:
            return []                  # not a work tree; nothing to check
        findings = []
        for line in proc.stdout.splitlines():
            if "__pycache__" in line or line.endswith(".pyc"):
                findings.append(Finding(
                    "HYG006", "error", line, 1,
                    "compiled bytecode is tracked by git",
                    hint="git rm --cached the file and cover it in "
                         ".gitignore"))
        return findings
