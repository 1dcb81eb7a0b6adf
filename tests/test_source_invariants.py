"""Invariants only the source shows, checked over the AST of ``src/repro``.

Three small checkers, each run over every module and pinned by snippets
of what it flags and the nearest pattern it must leave alone:

* **lock discipline** (LOCK001 write / LOCK002 read): per class, the
  ``self`` attributes it mutates inside ``with self.<lock>:`` are
  *guarded*; touching one outside that lock is a race.  ``__init__`` is
  exempt, a closure never inherits the locks around it (it may run on
  another thread later), and a ``Condition.wait_for`` predicate runs
  with its lock held;
* **hygiene** (HYG001-HYG006): no ``pickle``, no ``eval``/``exec``, no
  bare ``except:``, every ``Thread`` daemonic or joined in an enclosing
  scope, every ``json.dump(s)`` passes ``allow_nan=False``, no tracked
  bytecode;
* **wire protocol** (WIRE001/WIRE002): outside ``edge/wire.py`` no raw
  wire tuple (a command tag first, at an arity ``wire.ARITY`` allows)
  and no ``message[0] == "<tag>"`` dispatch;
* **no unturned knobs** (KNOB001): every field of ``PlannerConfig``,
  ``TrainConfig``, ``PruneConfig``, ``ServerConfig``, ``BatchingConfig``,
  ``LoadgenConfig``, ``SplitConfig``, ``EDViTConfig`` and
  ``SyntheticSpec`` is passed by keyword to its class somewhere in
  ``src/``, ``examples/`` or ``benchmarks/`` outside tests and outside
  the class's own body.  A value nothing sets is a constant
  (``KNOB_ALLOWED`` names the one exception and its reason);
* **no unturned keywords** (KNOB002): every parameter with a default of
  every ``def`` of ``repro`` (module-level functions and methods,
  private ones and ``__init__`` too; nested functions are out) is passed,
  by keyword or by position, at some call outside tests and outside the
  function's own body.  Calls are matched by name (``__init__`` by its
  class's); a call through a dispatch table (``TABLE[key](...)``) counts
  for every function the table holds, and a function passed as an
  argument (a callback, ``partial``) escapes the check.  It is a floor,
  as REACH001 is: two functions of one name share their callers.
  ``KNOB2_ALLOWED`` names the exceptions and their reasons;
* **no unreached names** (REACH001): every public top-level function,
  class or assigned name (a module table or constant) of ``repro``, and
  every public method of such a class, is used in some module of
  ``src/``, ``examples/`` or ``benchmarks/`` outside tests and outside its
  own definition.  A bare name is a use only in a module that defines it
  at top level in ``repro`` or imports it from ``repro`` (a script's own
  ``check`` or a local variable ``pending`` is not one).  An attribute
  ``x.m`` is a use of every ``m``, except when ``x`` is a known instance
  of a class that defines ``m`` (``self`` in it, a parameter annotated
  with it, a name or plain-object attribute assigned from its
  constructor): then it is a use of that class's ``m`` and its bases'.
  Strings (the lazy-export tables) and imports do not count.  It is a
  floor: a name that collides with another attribute (``exp`` and
  ``np.exp``) on an unknown receiver passes anyway.

Pure ``ast`` walks over ~130 files; the whole module runs in about a
second.
"""

import ast
import collections
import functools
import subprocess
import textwrap
from pathlib import Path

import pytest

import repro
from repro.edge import wire

SRC = Path(repro.__file__).resolve().parent
ROOT = SRC.parent.parent

# Benign double-checked reads: the fast path peeks before taking the
# lock and the slow path re-checks under it.
LOCK_READS_ALLOWED = {
    "Workspace._stores is guarded by _lock but read outside it in "
    "_storage()",
    "MetricsRegistry._instruments is guarded by _lock but read outside "
    "it in _get()",
}

LOCK_FACTORIES = {"Lock", "RLock", "Condition"}
MUTATORS = {"append", "appendleft", "extend", "insert", "add", "update",
            "setdefault", "pop", "popleft", "popitem", "remove", "discard",
            "clear"}

Finding = collections.namedtuple("Finding", "rule where message")


@functools.lru_cache(maxsize=None)
def source_trees():
    """``{path relative to src/: parsed module}`` for all of ``repro``."""
    return {path.relative_to(SRC.parent).as_posix():
            ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(SRC.rglob("*.py"))}


@functools.lru_cache(maxsize=None)
def program_trees():
    """Every non-test module a caller can set a knob from: ``src/``,
    ``examples/`` and ``benchmarks/``, without their test files."""
    trees = dict(source_trees())
    for top in ("examples", "benchmarks"):
        for path in sorted((ROOT / top).rglob("*.py")):
            relative = path.relative_to(ROOT)
            if "tests" in relative.parts or path.name.startswith("test_"):
                continue
            trees[relative.as_posix()] = ast.parse(
                path.read_text(encoding="utf-8"), str(path))
    return trees


def scan(checker):
    return [finding for path, tree in source_trees().items()
            for finding in checker(tree, path)]


def snippet(checker, source, path="m.py"):
    """The rule ids ``checker`` reports on a dedented source snippet."""
    return [f.rule for f in checker(ast.parse(textwrap.dedent(source)), path)]


def _name(func):
    """``f`` / ``obj.f`` -> ``"f"``."""
    return func.attr if isinstance(func, ast.Attribute) \
        else getattr(func, "id", None)


def _self_attr(node):
    """``self.X`` -> ``"X"``, else None."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
            and node.value.id == "self":
        return node.attr
    return None


# -- lock discipline --------------------------------------------------------
def _mutated(node):
    """The ``self.X`` nodes one statement or call mutates in place."""
    if isinstance(node, (ast.Assign, ast.Delete)):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
            and node.func.attr in MUTATORS:
        targets = [node.func.value]
    else:
        return []
    bases = []
    for target in targets:
        while isinstance(target, ast.Subscript):
            target = target.value
        if _self_attr(target) is not None:
            bases.append(target)
    return bases


def _walk_held(node, held, locks, visit):
    """Visit ``node`` and its subtree with the set of held locks."""
    visit(node, held)
    if isinstance(node, (ast.With, ast.AsyncWith)):
        for item in node.items:
            _walk_held(item.context_expr, held, locks, visit)
        inner = held | {_self_attr(item.context_expr) for item in node.items
                        if _self_attr(item.context_expr) in locks}
        for stmt in node.body:
            _walk_held(stmt, inner, locks, visit)
        return
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        held = frozenset()             # may run later, on any thread
    elif isinstance(node, ast.Call) and _name(node.func) == "wait_for" \
            and _self_attr(node.func.value) in locks:
        # Condition.wait_for runs its predicate with the lock held.
        lock = _self_attr(node.func.value)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Lambda):
                _walk_held(child.body, held | {lock}, locks, visit)
            else:
                _walk_held(child, held, locks, visit)
        return
    for child in ast.iter_child_nodes(node):
        _walk_held(child, held, locks, visit)


def lock_findings(tree, path):
    findings = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        methods = [n for n in cls.body
                   if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        locks = {_self_attr(target) for method in methods
                 for node in ast.walk(method)
                 if isinstance(node, ast.Assign)
                 and isinstance(node.value, ast.Call)
                 and _name(node.value.func) in LOCK_FACTORIES
                 for target in node.targets} - {None}
        guarded = collections.defaultdict(set)

        def infer(node, held):
            if held:
                for base in _mutated(node):
                    if base.attr not in locks:
                        guarded[base.attr] |= held

        for method in methods:
            for stmt in method.body:
                _walk_held(stmt, frozenset(), locks, infer)

        for method in methods:
            if method.name == "__init__" or not guarded:
                continue               # no other thread can hold self yet
            written = set()

            def check(node, held, method=method, written=written):
                accesses = [("LOCK001", "written", base)
                            for base in _mutated(node)]
                written.update(id(base) for _, _, base in accesses)
                if isinstance(node, ast.Attribute) \
                        and isinstance(node.ctx, ast.Load) \
                        and id(node) not in written:
                    accesses.append(("LOCK002", "read", node))
                for rule, kind, base in accesses:
                    attr = _self_attr(base)
                    if attr in guarded and not held & guarded[attr]:
                        findings.append(Finding(
                            rule, f"{path}:{base.lineno}",
                            f"{cls.name}.{attr} is guarded by "
                            f"{'/'.join(sorted(guarded[attr]))} but {kind} "
                            f"outside it in {method.name}()"))

            for stmt in method.body:
                _walk_held(stmt, frozenset(), locks, check)
    return findings


# -- hygiene ----------------------------------------------------------------
def _keyword_is(call, name, value):
    return any(k.arg == name and isinstance(k.value, ast.Constant)
               and k.value.value is value for k in call.keywords)


def _joins(scope):
    """Any ``x.join(...)`` on a non-literal receiver (not ``", ".join``)."""
    return any(isinstance(node, ast.Call) and _name(node.func) == "join"
               and isinstance(node.func, ast.Attribute)
               and not isinstance(node.func.value, ast.Constant)
               for node in ast.walk(scope))


def hygiene_findings(tree, path):
    findings = []

    def visit(node, scopes):
        def flag(rule, message):
            findings.append(Finding(rule, f"{path}:{node.lineno}", message))

        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "pickle" in [a.name for a in node.names] + [
                    getattr(node, "module", None)]:
                flag("HYG001", "pickle imported; artifacts are npz/JSON")
        elif isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) \
                    and node.func.id in ("eval", "exec"):
                flag("HYG002", f"call to {node.func.id}()")
            elif _name(node.func) == "Thread" \
                    and not _keyword_is(node, "daemon", True) \
                    and not any(_joins(scope) for scope in scopes):
                flag("HYG004", "non-daemon Thread never joined in its scope")
            elif isinstance(node.func, ast.Attribute) \
                    and getattr(node.func.value, "id", None) == "json" \
                    and node.func.attr in ("dump", "dumps") \
                    and not _keyword_is(node, "allow_nan", False):
                flag("HYG005",
                     f"json.{node.func.attr} without allow_nan=False")
        elif isinstance(node, ast.ExceptHandler) and node.type is None:
            flag("HYG003", "bare except: swallows KeyboardInterrupt")
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scopes = scopes + [node]
        for child in ast.iter_child_nodes(node):
            visit(child, scopes)

    visit(tree, [tree])
    return findings


# -- wire protocol ----------------------------------------------------------
def _tag(node):
    if isinstance(node, ast.Constant) and node.value in wire.ARITY:
        return node.value
    return None


def wire_findings(tree, path):
    if path == "repro/edge/wire.py":
        return []
    findings = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Tuple) and node.elts \
                and (tag := _tag(node.elts[0])) is not None:
            lo, hi = wire.ARITY[tag]
            # ("error", "warning") is no wire tuple: an ERROR has three.
            if lo <= len(node.elts) <= hi:
                findings.append(Finding(
                    "WIRE001", f"{path}:{node.lineno}",
                    f"raw {tag!r} tuple; build it with wire.{tag}_message"))
        elif isinstance(node, ast.Compare) \
                and isinstance(node.left, ast.Subscript) \
                and getattr(node.left.slice, "value", None) == 0:
            literals = [e for c in node.comparators
                        for e in (c.elts if isinstance(c, ast.Tuple)
                                  else [c])]
            if any(_tag(lit) for lit in literals):
                findings.append(Finding(
                    "WIRE002", f"{path}:{node.lineno}",
                    "message[0] compared to a command string; compare "
                    "wire.command(message) to the wire constant"))
    return findings


KNOB_CLASSES = {"PlannerConfig", "TrainConfig", "PruneConfig",
                "ServerConfig", "BatchingConfig", "LoadgenConfig",
                "SplitConfig", "EDViTConfig", "SyntheticSpec"}

# Fields nothing outside tests/ sets, each kept for its reason.  The
# allowlist only shrinks.
KNOB_ALLOWED = {
    "LoadgenConfig.arrivals":
        "the arrival trace a trace-mode run replays: data, not a value a "
        "constant could hold; the e2e benchmark's own tests replay one",
}


def _knob_settings(node, found, inside=None):
    """Keywords passed to a knob class's constructor, per class, outside
    that class's own body."""
    if isinstance(node, ast.ClassDef):
        inside = node.name
    if isinstance(node, ast.Call):
        name = _name(node.func)
        if name in KNOB_CLASSES and name != inside:
            found[name].update(k.arg for k in node.keywords if k.arg)
    for child in ast.iter_child_nodes(node):
        _knob_settings(child, found, inside)


def knob_fields(trees):
    """``{class: [field, ...]}`` for every knob class defined in ``trees``."""
    return {node.name: [stmt.target.id for stmt in node.body
                        if isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)]
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and node.name in KNOB_CLASSES}


def knob_findings(trees):
    found = collections.defaultdict(set)
    for tree in trees.values():
        _knob_settings(tree, found)
    return [Finding("KNOB001", f"{cls}.{field}",
                    f"{cls}.{field} is set by no caller outside tests/")
            for cls, fields in knob_fields(trees).items()
            for field in fields if field not in found[cls]
            and f"{cls}.{field}" not in KNOB_ALLOWED]


def knob_snippet(*sources):
    return [f.where for f in knob_findings(
        {f"m{i}.py": ast.parse(textwrap.dedent(source))
         for i, source in enumerate(sources)})]


# Keywords nothing outside tests/ passes, each kept for its reason.  The
# allowlist only shrinks; an entry names a function and its parameters.
KNOB2_ALLOWED = {
    "repro.edge.transport.TcpTransport.__init__(host, port)":
        "deployment settings: a multi-host fleet binds its listener to a "
        "routable address and a fixed port",
    "repro.cli.main(argv)":
        "the CLI's test seam: tests run main() on an argument list",
    "repro.models.vgg.vgg11_tiny_config(num_classes, image_size, "
    "width_scale)":
        "test fixture (REACH_ALLOWED): each test sizes its own tiny VGG",
    "repro.models.snn.csnn_tiny_config(num_classes, image_size, "
    "width_scale, time_steps)":
        "test fixture (REACH_ALLOWED): each test sizes its own tiny SNN",
}

TYPE_CHECKS = {"isinstance", "issubclass"}


def knob2_allowed():
    """``KNOB2_ALLOWED`` as one ``function(parameter)`` per parameter."""
    found = set()
    for entry in KNOB2_ALLOWED:
        function, params = entry[:-1].split("(")
        found.update(f"{function}({p.strip()})" for p in params.split(","))
    return found


def _defaulted(args):
    """``(position or None, name)`` of each parameter with a default."""
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    return [(i, a.arg) for i, a in enumerate(positional) if i >= first] + \
        [(None, a.arg) for a, default in zip(args.kwonlyargs,
                                             args.kw_defaults)
         if default is not None]


def keyword_definitions(trees):
    """``(dotted name, called as, self offset, node)`` for every module-level
    function and method of ``repro``; ``__init__`` is called as its class,
    and any other method as an attribute (``called`` is ``".name"``)."""
    for path, tree in trees.items():
        if not path.startswith("repro/"):
            continue
        module = path[:-len(".py")].replace("/", ".")
        for node in tree.body:
            if isinstance(node, DEFINITIONS[:2]):
                yield f"{module}.{node.name}", node.name, 0, node
            elif isinstance(node, ast.ClassDef):
                for method in node.body:
                    if not isinstance(method, DEFINITIONS[:2]):
                        continue
                    static = any(_name(d) == "staticmethod"
                                 for d in method.decorator_list)
                    called = node.name if method.name == "__init__" \
                        else f".{method.name}"
                    yield (f"{module}.{node.name}.{method.name}", called,
                           0 if static else 1, method)


def _call_sites(trees):
    """Calls by callee name; ``TABLE[key](...)`` under ``"TABLE[]"``."""
    sites = collections.defaultdict(list)
    for tree in trees.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Subscript) \
                    and isinstance(func.value, ast.Name):
                sites[f"{func.value.id}[]"].append(node)
            else:
                sites[_name(func)].append(node)
    return sites


def _escapes(trees):
    """``(passed, tables)``: the node types under which each name is passed
    as a call argument, and the dispatch tables (a dict bound to a name)
    each name is a value of."""
    passed = collections.defaultdict(set)
    tables = collections.defaultdict(set)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) \
                    and isinstance(node.value, ast.Dict):
                for target in node.targets:
                    for value in node.value.values:
                        if isinstance(target, ast.Name) and \
                                isinstance(value, (ast.Name, ast.Attribute)):
                            tables[_name(value)].add(target.id)
            elif isinstance(node, ast.Call) \
                    and _name(node.func) not in TYPE_CHECKS:
                for value in node.args + [k.value for k in node.keywords]:
                    if isinstance(value, (ast.Name, ast.Attribute)):
                        passed[_name(value)].add(type(value))
    return passed, tables


def _passes(call, index, param, offset):
    """Whether ``call`` passes ``param`` (at ``index``, or keyword-only)."""
    if any(k.arg is None or k.arg == param for k in call.keywords):
        return True                    # by name, or through **kwargs
    if index is None:
        return False
    return any(isinstance(a, ast.Starred) for a in call.args) \
        or index - offset < len(call.args)


def knob2_findings(trees):
    sites = _call_sites(trees)
    passed, tables = _escapes(trees)
    findings = []
    for where, called, offset, node in keyword_definitions(trees):
        name = called.lstrip(".")
        # A method escapes only as an attribute (``self.run``): a local
        # variable of its name does not hide it.
        escaped = passed[name] & ({ast.Attribute} if called != name
                                  else {ast.Name, ast.Attribute})
        if escaped:
            continue
        own = {id(child) for child in ast.walk(node)}
        calls = [c for c in sites[name] if id(c) not in own]
        for table in tables[name]:
            calls += sites[f"{table}[]"]
        for index, param in _defaulted(node.args):
            if not any(_passes(c, index, param, offset) for c in calls):
                findings.append(Finding(
                    "KNOB002", f"{where}({param})",
                    f"{where}({param}) is passed by no caller outside "
                    f"tests/"))
    return findings


def knob2_snippet(*sources, paths=None):
    paths = paths or [f"repro/m{i}.py" for i in range(len(sources))]
    trees = {path: ast.parse(textwrap.dedent(source))
             for path, source in zip(paths, sources)}
    return [f.where for f in knob2_findings(trees)
            if f.where not in knob2_allowed()]


# Public names nothing outside tests/ reaches, each kept for its reason.
# The allowlist only shrinks.
REACH_ALLOWED = {
    "repro.models.vgg.vgg11_tiny_config":
        "test fixture; moving it into tests/ would not remove anything",
    "repro.models.snn.csnn_tiny_config":
        "test fixture; moving it into tests/ would not remove anything",
    "repro.nn.backend.Workspace.per_thread":
        "how the tests check that concurrent inference gets its own "
        "scratch per thread",
}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _bound(stmt):
    """The names an assignment statement binds to plain names."""
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [node.id for target in targets
            for node in (target.elts if isinstance(target, ast.Tuple)
                         else [target])
            if isinstance(node, ast.Name)]


def public_definitions(trees):
    """``(dotted name, name, class, node)`` for each public top-level
    function, class or assigned name of ``repro`` and each public method of
    such a class (``class`` is the method's, ``None`` at top level)."""
    for path, tree in trees.items():
        if not path.startswith("repro/"):
            continue
        module = path[:-len(".py")].replace("/", ".")
        for node in tree.body:
            for name in _bound(node):
                if not name.startswith("_"):
                    yield f"{module}.{name}", name, None, node
            if not isinstance(node, DEFINITIONS) or node.name.startswith("_"):
                continue
            yield f"{module}.{node.name}", node.name, None, node
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, DEFINITIONS[:2]) \
                            and not method.name.startswith("_"):
                        yield (f"{module}.{node.name}.{method.name}",
                               method.name, node.name, method)


def _members(trees):
    """``{class: names its body defines}`` for every class of ``repro``:
    methods and class-level assignments (dataclass fields)."""
    return {node.name: {stmt.name for stmt in node.body
                        if isinstance(stmt, DEFINITIONS[:2])}
            | {name for stmt in node.body for name in _bound(stmt)}
            for path, tree in trees.items() if path.startswith("repro/")
            for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}


def _from_repro(path, tree):
    """The bare names a module takes from ``repro``: those a ``repro``
    module defines at top level, and any name imported from ``repro``."""
    inside = path.startswith("repro/")
    names = set()
    if inside:
        for stmt in tree.body:
            names.update(_bound(stmt))
            if isinstance(stmt, DEFINITIONS):
                names.add(stmt.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level and inside
                or (node.module or "").split(".")[0] == "repro"):
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def _scope_nodes(body):
    """Every node of a scope's body outside the functions it defines (their
    decorators, defaults and annotations belong to it)."""
    stack = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, DEFINITIONS[:2]):
            stack += node.decorator_list + [node.args]
            stack += [node.returns] if node.returns else []
        else:
            stack += ast.iter_child_nodes(node)


def _instance_of(expr, env, members):
    """The ``repro`` class ``expr`` is a known instance of, or None: a call
    ``B(...)``, or a name or ``self`` attribute ``env`` knows."""
    if isinstance(expr, ast.Call) and _name(expr.func) in members:
        return _name(expr.func)
    if isinstance(expr, ast.Name):
        return env.get(expr.id)
    if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
        return env.get(f"{expr.value.id}.{expr.attr}")
    return None


def _scopes(tree, members, lineage):
    """``[(nodes, env)]`` for the module and each function in it: ``env``
    maps each name (and ``self.attr``) known to hold one ``repro`` class's
    instance to that class.  Known means ``self`` in a method of the class,
    a parameter annotated with it, or every assignment a call of it (or a
    name already known); any other binding makes a name unknown."""
    methods = {id(stmt): node.name for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef) for stmt in node.body}
    attrs = collections.defaultdict(lambda: collections.defaultdict(set))
    scopes = []

    def visit(scope, env):
        nodes = list(_scope_nodes(scope.body))
        env, bound = dict(env), collections.defaultdict(set)
        for i, arg in enumerate(_arguments(scope)):
            annotation = arg.annotation
            hint = annotation.value if isinstance(annotation, ast.Constant) \
                else _name(annotation) if annotation else None
            if i == 0 and arg.arg == "self" and id(scope) in methods:
                hint = methods[id(scope)]
            bound[arg.arg].add(hint if hint in members else None)
        env.update(_known(bound))
        assigned = {}
        for node in nodes:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                assigned[id(node.targets[0])] = _instance_of(
                    node.value, env, members)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                assigned[id(node.target)] = _instance_of(node.value, env,
                                                         members)
        for node in nodes:
            if not isinstance(getattr(node, "ctx", None), ast.Store):
                continue
            if isinstance(node, ast.Name):
                bound[node.id].add(assigned.get(id(node)))
            elif isinstance(node, ast.Attribute) and env.get("self") \
                    and _name(node.value) == "self":
                # ``quantize_module`` and the pruning surgery swap a
                # module's children in place, so only an attribute holding
                # a plain object keeps the class it was assigned.
                hint = assigned.get(id(node))
                attrs[env["self"]][node.attr].add(
                    None if "Module" in lineage.get(hint, ()) else hint)
        env.update(_known(bound))
        scopes.append((nodes, env))
        for node in nodes:
            if isinstance(node, DEFINITIONS[:2]):
                visit(node, env)

    visit(tree, {})
    for nodes, env in scopes:
        env.update({f"self.{attr}": hint for attr, hint
                    in _known(attrs[env.get("self")]).items()})
    return scopes


def _known(bound):
    """``{name: class}`` from each name's set of bound classes: the one
    class when every binding agrees, ``None`` (unknown) otherwise."""
    return {name: next(iter(hints)) if len(hints) == 1 else None
            for name, hints in bound.items()}


def _arguments(scope):
    """Every parameter of a function; none for the module."""
    args = getattr(scope, "args", None)
    if args is None:
        return []
    return [a for a in args.posonlyargs + args.args + args.kwonlyargs
            + [args.vararg, args.kwarg] if a is not None]


def reach_uses(path, tree, members, lineage):
    """``(name, class, node)`` for each use of a name in ``tree``: a bare
    name only where the module takes it from ``repro``, an attribute always,
    with ``class`` the receiver's when it is a known instance of a class
    that defines the attribute (``None`` otherwise)."""
    scoped = _from_repro(path, tree)
    for nodes, env in _scopes(tree, members, lineage):
        for node in nodes:
            if isinstance(node, ast.Name) and node.id in scoped:
                yield node.id, None, node
            elif isinstance(node, ast.Attribute):
                cls = _instance_of(node.value, env, members)
                yield (node.attr,
                       cls if node.attr in members.get(cls, ()) else None,
                       node)


def _lineage(trees):
    """``{class: itself and every repro class it derives from}``."""
    bases = {node.name: [_name(base) for base in node.bases]
             for path, tree in trees.items() if path.startswith("repro/")
             for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}

    def up(cls):
        return {cls}.union(*(up(base) for base in bases.get(cls, ())
                             if base != cls))
    return {cls: up(cls) for cls in bases}


def reach_findings(trees):
    members, lineage = _members(trees), _lineage(trees)
    uses = collections.defaultdict(list)
    for path, tree in trees.items():
        for name, cls, node in reach_uses(path, tree, members, lineage):
            uses[name].append((cls, id(node)))
    findings = []
    for where, name, cls, node in public_definitions(trees):
        # A known instance of one of its bases may be one of this class.
        own = {id(child) for child in ast.walk(node)}
        if not any((owner is None or owner in lineage.get(cls, ()))
                   and use not in own for owner, use in uses[name]):
            findings.append(Finding(
                "REACH001", where, f"{where} is reached by nothing outside "
                f"tests/ and its own definition"))
    return findings


def reach_snippet(*sources, paths=None):
    paths = paths or [f"repro/m{i}.py" for i in range(len(sources))]
    return [f.where for f in reach_findings(
        {path: ast.parse(textwrap.dedent(source))
         for path, source in zip(paths, sources)})]


# -- the source -------------------------------------------------------------
class TestSource:
    @pytest.mark.parametrize("checker", [lock_findings, hygiene_findings,
                                         wire_findings],
                             ids=["locks", "hygiene", "wire"])
    def test_has_no_findings(self, checker):
        findings = [f for f in scan(checker)
                    if f.message not in LOCK_READS_ALLOWED]
        assert findings == [], "\n".join(map(str, findings))

    def test_scan_sees_the_whole_package(self):
        assert {"repro/edge/wire.py", "repro/serving/server.py",
                "repro/nn/backend.py", "repro/obs/metrics.py"} \
            <= set(source_trees())

    def test_allowed_reads_are_still_there(self):
        # Drop an entry once its code is gone: the allowlist only shrinks.
        found = {f.message for f in scan(lock_findings)}
        assert LOCK_READS_ALLOWED <= found

    def test_every_knob_is_turned_by_a_caller(self):
        findings = knob_findings(program_trees())
        assert findings == [], "\n".join(f.message for f in findings)

    def test_allowed_knobs_are_still_unset(self):
        # Drop an entry once a caller sets it: the allowlist only shrinks.
        found = collections.defaultdict(set)
        for tree in program_trees().values():
            _knob_settings(tree, found)
        for where in KNOB_ALLOWED:
            cls, field = where.split(".")
            assert field in knob_fields(program_trees())[cls]
            assert field not in found[cls], where

    def test_every_keyword_is_passed_by_a_caller(self):
        findings = [f for f in knob2_findings(program_trees())
                    if f.where not in knob2_allowed()]
        assert findings == [], "\n".join(f.message for f in findings)

    def test_allowed_keywords_are_still_unset(self):
        # Drop an entry once a caller passes it or its code is gone: the
        # allowlist only shrinks.
        found = {f.where for f in knob2_findings(program_trees())}
        assert knob2_allowed() <= found

    def test_knob_scan_sees_the_classes_and_their_callers(self):
        trees = program_trees()
        assert set(knob_fields(trees)) == KNOB_CLASSES
        assert {"examples/quickstart.py", "benchmarks/bench_ablations.py",
                "repro/planning/capacity.py"} <= set(trees)
        assert not any("tests" in Path(path).parts for path in trees)

    def test_every_public_name_is_reached(self):
        findings = [f for f in reach_findings(program_trees())
                    if f.where not in REACH_ALLOWED]
        assert findings == [], "\n".join(f.message for f in findings)

    def test_unreached_names_allowed_are_still_there(self):
        # Drop an entry once its code is gone or a caller reaches it.
        found = {f.where for f in reach_findings(program_trees())}
        assert set(REACH_ALLOWED) <= found

    def test_no_bytecode_is_tracked(self):
        ignored = (ROOT / ".gitignore").read_text().split()
        assert "__pycache__/" in ignored and "*.pyc" in ignored
        listed = subprocess.run(["git", "ls-files"], cwd=ROOT,
                                capture_output=True, text=True, check=False)
        tracked = listed.stdout.splitlines() if listed.returncode == 0 \
            else []
        assert [f for f in tracked
                if "__pycache__" in f or f.endswith(".pyc")] == []


# -- the checkers -----------------------------------------------------------
class TestLockDiscipline:
    BOX = """
        import threading

        class Box:
            def __init__(self):
                self._lock = threading.Lock()
                self._items = []

            def put(self, item):
                with self._lock:
                    self._items.append(item)

            def probe(self, item, timer):
        """

    def test_unlocked_write_names_class_attribute_and_method(self):
        findings = lock_findings(ast.parse(textwrap.dedent(self.BOX)
                                           + "        self._items = []"),
                                 "m.py")
        assert [f.rule for f in findings] == ["LOCK001"]
        assert findings[0].message == ("Box._items is guarded by _lock but "
                                       "written outside it in probe()")

    @pytest.mark.parametrize("body, rules", [
        ("return list(self._items)", ["LOCK002"]),
        ("with self._lock:\n    return self._items.pop()", []),
        ("pass", []),                  # __init__'s writes are exempt
        ("self._items[0] = item", ["LOCK001"]),
        ("del self._items[0]", ["LOCK001"]),
        ("self._items.append(item)", ["LOCK001"]),
        # The callback may run on another thread long after the with
        # block exited: the enclosing lock must not excuse it.
        ("with self._lock:\n    timer(lambda: self._items.pop())",
         ["LOCK001"]),
    ], ids=["read", "locked", "init-only", "item-store", "item-del",
            "mutating-call", "closure"])
    def test_box_method(self, body, rules):
        source = textwrap.dedent(self.BOX) + textwrap.indent(body, " " * 8)
        assert snippet(lock_findings, source) == rules

    def test_condition_wait_for_predicate_counts_as_locked(self):
        assert snippet(lock_findings, """
            import threading

            class Mailbox:
                def __init__(self):
                    self._cond = threading.Condition()
                    self._items = []

                def put(self, item):
                    with self._cond:
                        self._items.append(item)
                        self._cond.notify_all()

                def get(self):
                    with self._cond:
                        self._cond.wait_for(lambda: self._items)
                        return self._items.pop()
        """) == []

    def test_attribute_never_mutated_under_lock_is_not_guarded(self):
        assert snippet(lock_findings, """
            import threading

            class Stats:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._hits = 0
                    self._name = "stats"

                def hit(self):
                    with self._lock:
                        self._hits += 1

                def label(self):
                    return self._name      # never lock-mutated: fine
        """) == []


THREAD = "import threading\nthread = threading.Thread(target=print"


@pytest.mark.parametrize("source, rules", [
    ("import pickle", ["HYG001"]),
    ("from pickle import loads", ["HYG001"]),
    ("eval(s)", ["HYG002"]),
    ("exec(s)", ["HYG002"]),
    ("try:\n    f()\nexcept:\n    pass", ["HYG003"]),
    ("try:\n    f()\nexcept Exception:\n    pass", []),
    (THREAD + ")\nthread.start()", ["HYG004"]),
    (THREAD + ", daemon=True)\nthread.start()", []),
    (THREAD + ")\nthread.start()\nthread.join()", []),
    # str.join is no Thread.join
    (THREAD + ')\nthread.start()\n", ".join(parts)', ["HYG004"]),
    ("import json\njson.dumps(data)", ["HYG005"]),
    ("import json\njson.dumps(data, allow_nan=False)", []),
], ids=["pickle", "from-pickle", "eval", "exec", "bare-except",
        "narrow-except", "thread", "daemon-thread", "joined-thread",
        "str-join", "json-nan", "json-allow-nan-false"])
def test_hygiene_snippet(source, rules):
    assert snippet(hygiene_findings, source) == rules


@pytest.mark.parametrize("source, rules", [
    ('reply = ("ready", worker_id)', ["WIRE001"]),
    ('if message[0] == "infer":\n    pass', ["WIRE002"]),
    ('if message[0] in ("infer", "stop"):\n    pass', ["WIRE002"]),
    ('SEVERITIES = ("error", "warning")', []),
    ("if wire.command(message) == wire.INFER:\n    pass", []),
], ids=["raw-tuple", "dispatch", "dispatch-in", "other-tuple",
        "wire-command"])
def test_wire_snippet(source, rules):
    assert snippet(wire_findings, source) == rules


KNOB_CLASS = """
    import dataclasses

    @dataclasses.dataclass
    class TrainConfig:
        epochs: int = 10
        lr: float = 1e-3

        def faster(self):
            return TrainConfig(lr=2 * self.lr)
"""


@pytest.mark.parametrize("caller, unset", [
    ("TrainConfig(epochs=3, lr=0.1)", []),
    ("core.TrainConfig(epochs=3)", ["TrainConfig.lr"]),
    ("TrainConfig()", ["TrainConfig.epochs", "TrainConfig.lr"]),
    # The keyword must go to the class itself, not to any call.
    ("train(epochs=3, lr=0.1)", ["TrainConfig.epochs", "TrainConfig.lr"]),
], ids=["both-set", "attribute-call", "defaults-only", "other-callee"])
def test_knob_snippet(caller, unset):
    # The class body's own TrainConfig(lr=...) never counts as a setter.
    assert knob_snippet(KNOB_CLASS, caller) == unset


KNOB2_FUNCTION = "def scale(x, factor=2, *, offset=0):\n    return x\n"
KNOB2_METHOD = """
    class Pool:
        def __init__(self, size=4):
            self.size = size

        def get(self, timeout=1.0):
            return self.size
"""


@pytest.mark.parametrize("sources, unset", [
    ([KNOB2_FUNCTION, "scale(1)"],
     ["repro.m0.scale(factor)", "repro.m0.scale(offset)"]),
    ([KNOB2_FUNCTION, "scale(1, 3, offset=1)"], []),
    ([KNOB2_FUNCTION, "scale(1, factor=3, offset=1)"], []),
    ([KNOB2_FUNCTION, "scale(*args, **kwargs)"], []),
    # ``__init__`` is called as its class; ``self`` takes no position.
    ([KNOB2_METHOD, "Pool(8).get(timeout=2.0)"], []),
    ([KNOB2_METHOD, "pool = Pool()\npool.get(5.0)"],
     ["repro.m0.Pool.__init__(size)"]),
    # A dispatch table's calls count for every function it holds.
    ([KNOB2_FUNCTION, "OPS = {'scale': scale}\nOPS['scale'](1, 3, offset=1)"],
     []),
    ([KNOB2_FUNCTION, "OPS = {'scale': scale}\nOPS['scale'](1, offset=1)"],
     ["repro.m0.scale(factor)"]),
    # A function passed as a value escapes; a method only as an attribute.
    ([KNOB2_FUNCTION, "functools.partial(scale, 1)"], []),
    ([KNOB2_METHOD, "Pool(8)\nthreading.Thread(target=Pool(8).get)"], []),
    ([KNOB2_METHOD, "get = 1\nprint(get)\nPool(8).get()"],
     ["repro.m0.Pool.get(timeout)"]),
    # Its own body is no caller, nor is a nested function checked.
    (["def walk(n, depth=0):\n    return walk(n, depth=depth + 1)\n",
      "walk(1)"], ["repro.m0.walk(depth)"]),
    (["def outer():\n    def inner(k=1):\n        return k\n"
      "    return inner()\n", "outer()"], []),
], ids=["unset", "by-position", "by-keyword", "splat", "class-call",
        "method-unset", "dispatch", "dispatch-unset", "partial",
        "callback-method", "local-name-is-no-escape", "recursion-only",
        "nested"])
def test_knob2_snippet(sources, unset):
    assert knob2_snippet(*sources) == unset


def test_knob2_allowlisted_keyword_is_left_alone():
    source = "def main(argv=None):\n    return argv\n"
    assert knob2_snippet(source, "main()",
                         paths=["repro/cli.py", "repro/__main__.py"]) == []
    assert knob2_snippet(source, "main()") == ["repro.m0.main(argv)"]


def test_the_wire_module_may_build_raw_tuples():
    assert snippet(wire_findings, 'reply = ("ready", worker_id)',
                   path="repro/edge/wire.py") == []


@pytest.mark.parametrize("sources, unreached", [
    (["def used():\n    pass\n", "from .m0 import used\nused()\n"], []),
    (["def unused():\n    pass\n"], ["repro.m0.unused"]),
    # Its own body (recursion) is not a caller.
    (["def walk(n):\n    return walk(n - 1)\n"], ["repro.m0.walk"]),
    # An import or a lazy-export string is not a use.
    (["def f():\n    pass\n",
      "from .m0 import f\n__all__ = ['f']\n_EXPORTS = {'.m0': ('f',)}\n"],
     ["repro.m0.f"]),
    # A method counts as reached through any attribute of its name.
    (["class C:\n    def run(self):\n        pass\n\n\nC().run()\n"], []),
    (["class C:\n    def run(self):\n        pass\n\n\nC()\n"],
     ["repro.m0.C.run"]),
    # Private names are not checked.
    (["def _helper():\n    pass\n"], []),
], ids=["called", "unused", "recursion-only", "import-and-strings",
        "method-called", "method-unused", "private"])
def test_reach_snippet(sources, unreached):
    assert reach_snippet(*sources) == unreached


# (a) Scope: a bare name is a use only where it means the repro name.
WIRE_CHECK = "def check(message):\n    return message\n"


@pytest.mark.parametrize("caller, path, unreached", [
    # A script's own function of the same name calls itself, not repro's.
    ("def check(x):\n    return x\n\n\ncheck(1)\n", "benchmarks/b.py",
     ["repro.m0.check"]),
    # So does a nested function or a local variable inside repro.
    ("def run():\n    def check(x):\n        return x\n"
     "    return check(1)\n\n\nrun()\n", "repro/m1.py", ["repro.m0.check"]),
    ("def run():\n    check = 1\n    return check\n\n\nrun()\n",
     "repro/m1.py", ["repro.m0.check"]),
    # Imported from repro (absolute or relative), or reached through its
    # module, it is a use.
    ("from repro.m0 import check\ncheck(1)\n", "benchmarks/b.py", []),
    ("from .m0 import check\ncheck(1)\n", "repro/m1.py", []),
    ("from repro import m0\nm0.check(1)\n", "benchmarks/b.py", []),
], ids=["same-name-script", "nested-same-name", "local-variable",
        "absolute-import", "relative-import", "through-module"])
def test_reach_scope_snippet(caller, path, unreached):
    assert reach_snippet(WIRE_CHECK, caller,
                         paths=["repro/m0.py", path]) == unreached


# (b) Module tables: a public module-level assignment is a public name.
@pytest.mark.parametrize("sources, unreached", [
    (["LIMIT = 3\n"], ["repro.m0.LIMIT"]),
    (["LOW, HIGH = 0, 1\nprint(LOW)\n"], ["repro.m0.HIGH"]),
    (["LIMIT: int = 3\n", "from .m0 import LIMIT\nprint(LIMIT)\n"], []),
    (["LIMIT = 3\n\n\ndef cap(x):\n    return min(x, LIMIT)\n\n\n"
      "cap(1)\n"], []),
    (["_PRIVATE = 1\n__all__ = []\n"], []),
], ids=["unused", "one-of-a-tuple", "imported", "used-in-module",
        "private-and-dunder"])
def test_reach_table_snippet(sources, unreached):
    assert reach_snippet(*sources) == unreached


# (c) Receivers: a known instance of another class that defines the method
# reaches that class's method, not this one.
RESETTERS = """
    class Registry:
        def reset(self):
            pass

    class State:
        def reset(self):
            pass

    Registry()
"""


@pytest.mark.parametrize("caller, unreached", [
    ("State().reset()\n", ["repro.m0.Registry.reset"]),
    ("state = State()\nstate.reset()\n", ["repro.m0.Registry.reset"]),
    ("def clear(state: State):\n    state.reset()\n\n\nclear(None)\n",
     ["repro.m0.Registry.reset"]),
    ("def clear(state: 'State'):\n    state.reset()\n\n\nclear(State())\n",
     ["repro.m0.Registry.reset"]),
    # ``self`` in the other class, and an attribute assigned from its
    # constructor or from an annotated parameter.
    ("class Layer:\n    def reset(self):\n        pass\n\n"
     "    def step(self):\n        self.reset()\n\n\nLayer().step()\n"
     "State().reset()\n", ["repro.m0.Registry.reset"]),
    ("class Layer:\n    def __init__(self):\n        self.state = State()\n"
     "\n    def step(self):\n        self.state.reset()\n\n\n"
     "Layer().step()\n", ["repro.m0.Registry.reset"]),
    ("class Server:\n    def __init__(self, state: State):\n"
     "        self._state = state\n\n    def start(self):\n"
     "        self._state.reset()\n\n\nServer(None).start()\n",
     ["repro.m0.Registry.reset"]),
    # Unknown or ambiguous receivers reach every class's method.
    ("def clear(thing):\n    thing.reset()\n\n\nclear(State())\n", []),
    ("x = State()\nx = Registry()\nx.reset()\n", []),
    # An instance of a subclass is one of its base too, and a class that
    # only inherits the method passes the use on.
    ("class Layer(Registry):\n    def step(self):\n        self.reset()\n"
     "\n\nLayer().step()\nState().reset()\n", []),
    # An override in a subclass hides the base's method from its instances.
    ("class Layer(State):\n    def reset(self):\n        pass\n\n"
     "    def step(self):\n        self.reset()\n\n\nLayer().step()\n",
     ["repro.m0.Registry.reset", "repro.m0.State.reset"]),
], ids=["constructor-call", "name-from-constructor", "annotated-parameter",
        "string-annotation", "self", "attribute-from-constructor",
        "attribute-from-parameter", "unknown", "ambiguous", "inherited",
        "override"])
def test_reach_receiver_snippet(caller, unreached):
    caller = "from .m0 import Registry, State\n" + caller
    assert reach_snippet(RESETTERS, caller) == unreached


def test_reach_swappable_module_attribute_is_unknown():
    """``quantize_module`` swaps a module's children in place, so a child
    assigned from one module class may be another by the time it runs."""
    modules = """
        class Module:
            pass

        class Conv(Module):
            def infer(self):
                pass

        class QuantConv(Module):
            def infer(self):
                pass

        class Embed(Module):
            def __init__(self):
                self.proj = Conv()

            def run(self):
                self.proj.infer()

        Embed().run()
        QuantConv()
    """
    assert reach_snippet(modules) == []
