"""Lock-discipline race detector.

For every class that owns a ``threading.Lock``/``RLock``/``Condition``
instance attribute, infer the **guarded attribute set** — the ``self``
attributes the class mutates inside ``with self.<lock>:`` blocks — and
flag any read or write of a guarded attribute outside that lock.

The inference is deliberately class-local and conservative:

* only instance locks assigned as ``self.X = threading.Lock()`` (or
  ``RLock``/``Condition``, bare or ``threading.``-qualified) count;
* guardedness comes from *mutations* under the lock (assignments,
  augmented assignments, ``del``, subscript stores, and calls to
  mutating container methods such as ``append``/``pop``/``update``);
  an attribute only ever read under a lock is not inferred as guarded;
* ``__init__`` is exempt from the violation pass (no concurrent caller
  can hold a reference yet), but its ``with`` blocks still contribute
  to guard inference;
* nested functions and lambdas defined inside a method are scanned with
  an *empty* held-lock set: a closure (worker target, timer body,
  weakref callback) may run on another thread long after the enclosing
  ``with`` block exited, so it cannot inherit the method's locks.

Benign double-checked-locking reads (check outside, re-check inside)
are true findings by this definition; they are accepted as documented
baseline entries rather than special-cased away, so any *new* one still
needs a human decision.
"""

from __future__ import annotations

import ast

from ..finding import Finding
from ..project import ModuleInfo, Project
from ..registry import Rule

LOCK_FACTORIES = frozenset({"Lock", "RLock", "Condition"})

# Container methods that mutate their receiver in place.
MUTATING_METHODS = frozenset({
    "append", "appendleft", "extend", "insert",
    "add", "update", "setdefault",
    "pop", "popleft", "popitem", "remove", "discard", "clear",
})


def _self_attr(node: ast.AST) -> str | None:
    """``self.X`` -> ``"X"``, else None."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
            and node.value.id == "self":
        return node.attr
    return None


def _base_self_attr(node: ast.AST) -> tuple[str, ast.Attribute] | None:
    """Strip subscripts: ``self.X[k][j]`` -> ``("X", <self.X node>)``."""
    while isinstance(node, ast.Subscript):
        node = node.value
    attr = _self_attr(node)
    if attr is None:
        return None
    return attr, node  # type: ignore[return-value]


def _is_lock_factory(value: ast.AST) -> bool:
    if not isinstance(value, ast.Call):
        return False
    func = value.func
    if isinstance(func, ast.Name):
        return func.id in LOCK_FACTORIES
    if isinstance(func, ast.Attribute):
        return func.attr in LOCK_FACTORIES
    return False


class _ClassAnalysis:
    def __init__(self, module: ModuleInfo, classdef: ast.ClassDef):
        self.module = module
        self.classdef = classdef
        self.methods = [n for n in classdef.body
                        if isinstance(n, (ast.FunctionDef,
                                          ast.AsyncFunctionDef))]
        self.locks: set[str] = set()
        self.guarded: dict[str, set[str]] = {}   # attr -> guarding locks
        self.findings: list[Finding] = []
        # Attribute nodes already reported (or counted) as write bases,
        # so the read pass does not double-report them.
        self._write_bases: set[int] = set()

    # -- pass 0: which attributes are locks --------------------------------
    def find_locks(self) -> None:
        for method in self.methods:
            for node in ast.walk(method):
                if isinstance(node, ast.Assign) \
                        and _is_lock_factory(node.value):
                    for target in node.targets:
                        attr = _self_attr(target)
                        if attr is not None:
                            self.locks.add(attr)

    # -- shared traversal ---------------------------------------------------
    def _held_after_with(self, node: ast.With | ast.AsyncWith,
                         held: frozenset[str]) -> frozenset[str]:
        acquired = set()
        for item in node.items:
            attr = _self_attr(item.context_expr)
            if attr in self.locks:
                acquired.add(attr)
        return held | acquired

    def _mutations(self, node: ast.AST) -> list[tuple[str, ast.Attribute]]:
        """Attribute bases this single statement/expression mutates."""
        out: list[tuple[str, ast.Attribute]] = []
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                base = _base_self_attr(target)
                if base is not None:
                    out.append(base)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                base = _base_self_attr(target)
                if base is not None:
                    out.append(base)
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr in MUTATING_METHODS:
            base = _base_self_attr(node.func.value)
            if base is not None:
                out.append(base)
        return out

    def _visit(self, node: ast.AST, held: frozenset[str], on_node) -> None:
        """Recurse tracking held locks; closures reset ``held`` to empty."""
        on_node(node, held)
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                self._visit(item.context_expr, held, on_node)
                if item.optional_vars is not None:
                    self._visit(item.optional_vars, held, on_node)
            inner = self._held_after_with(node, held)
            for stmt in node.body:
                self._visit(stmt, inner, on_node)
            return
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "wait_for" \
                and _self_attr(node.func.value) in self.locks:
            # Condition.wait_for invokes its predicate synchronously with
            # the condition (re)acquired, so a predicate lambda reads
            # guarded state *under* the lock — unlike other closures.
            lock = _self_attr(node.func.value)
            self._visit(node.func, held, on_node)
            for arg in node.args:
                if isinstance(arg, ast.Lambda):
                    on_node(arg, held | {lock})
                    for child in ast.iter_child_nodes(arg):
                        self._visit(child, held | {lock}, on_node)
                else:
                    self._visit(arg, held, on_node)
            for keyword in node.keywords:
                self._visit(keyword, held, on_node)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            # A nested def/lambda (worker target, timer body, weakref
            # callback) may run later on any thread: it cannot inherit
            # the enclosing method's held locks.
            for child in ast.iter_child_nodes(node):
                self._visit(child, frozenset(), on_node)
            return
        for child in ast.iter_child_nodes(node):
            self._visit(child, held, on_node)

    # -- pass 1: infer guarded attributes -----------------------------------
    def infer_guarded(self) -> None:
        def on_node(node: ast.AST, held: frozenset[str]) -> None:
            if not held:
                return
            for attr, _ in self._mutations(node):
                if attr in self.locks:
                    continue           # the lock object itself
                self.guarded.setdefault(attr, set()).update(held)

        for method in self.methods:
            for stmt in method.body:
                self._visit(stmt, frozenset(), on_node)

    # -- pass 2: violations --------------------------------------------------
    def _flag(self, kind: str, attr: str, node: ast.AST,
              method_name: str) -> None:
        locks = "/".join(sorted(self.guarded[attr]))
        rule_id = "LOCK001" if kind == "written" else "LOCK002"
        severity = "error" if kind == "written" else "warning"
        self.findings.append(Finding(
            rule_id, severity, self.module.path,
            getattr(node, "lineno", self.classdef.lineno),
            f"{self.classdef.name}.{attr} is guarded by '{locks}' but "
            f"{kind} outside it in method '{method_name}'",
            hint=f"wrap the access in 'with self.{locks.split('/')[0]}:'"))

    def find_violations(self) -> None:
        for method in self.methods:
            if method.name == "__init__":
                continue               # no concurrent caller exists yet

            def on_node(node: ast.AST, held: frozenset[str],
                        method=method) -> None:
                for attr, base in self._mutations(node):
                    if attr not in self.guarded:
                        continue
                    self._write_bases.add(id(base))
                    if not (held & self.guarded[attr]):
                        self._flag("written", attr, node, method.name)
                if isinstance(node, ast.Attribute) \
                        and isinstance(node.ctx, ast.Load) \
                        and id(node) not in self._write_bases:
                    attr = _self_attr(node)
                    if attr in self.guarded \
                            and not (held & self.guarded[attr]):
                        self._flag("read", attr, node, method.name)

            # Mutation bases are registered before their Attribute nodes
            # are visited (node first, children after), so the read pass
            # skips them.
            for stmt in method.body:
                self._visit(stmt, frozenset(), on_node)

    def run(self) -> list[Finding]:
        self.find_locks()
        if not self.locks:
            return []
        self.infer_guarded()
        if not self.guarded:
            return []
        self.find_violations()
        return self.findings


class LockDisciplineRule(Rule):
    name = "lock-discipline"
    description = ("infer lock-guarded attribute sets per class and flag "
                   "reads/writes of guarded attributes outside the lock")
    finding_ids = ("LOCK001", "LOCK002")

    def check_module(self, module: ModuleInfo,
                     project: Project) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                findings.extend(_ClassAnalysis(module, node).run())
        return findings
