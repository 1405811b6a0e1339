"""Static reachability of the functions, classes and options in ``src/repro``.

    python3 tools/reach.py

**Symbols.**  A symbol node is every top-level ``def`` or ``class`` in
``src/repro/**/*.py``.  The roots are ``src/repro/__main__.py``, the
module-level statements of every non-``__init__`` module (imports and
``__all__`` left out), and every ``.py`` file under ``bench/``, ``benchmarks/``,
``examples/`` and ``tools/`` (this file left out).  A node is reached when a
root or a reached node contains its name: as a name, an attribute, an import or
keyword name, or an identifier inside a string literal other than a docstring
(``bench/trace.py`` binds ``"repro.secure.sac:sac_average"`` strings).  Package
``__init__`` re-exports and ``tests/`` are not roots, so code only tests use
shows up.  Matching is by bare name, so the check errs towards calling code
reached.

**Options.**  An option node is every parameter with a default of a function,
method or nested function (``module:func.param``, ``module:Class.method.param``;
``__init__`` parameters are keyed ``module:Class.param`` because callers call
the class) and every dataclass field with a default that ``__init__`` accepts
(``module:Class.field``).  ``__main__.py`` definitions are roots, not nodes, and
so are protocol hooks (``__call__``, or a def bound to a dunder as in
``__array__ = f``): Python calls them, not callers by name.  An option is set
when a root or a reached node passes it to a call whose callee name matches:

- as a keyword, or positionally at its index or later (a ``*`` argument
  covers every index from its own on);
- as a key of a dict that the roots or reached code build (a literal,
  ``dict(...)``, ``d.setdefault(key, ...)``, ``d[key] = ...``), at a call that
  expands a dict with ``**``;
- by ``replace(obj, name=...)``, which sets every dataclass field ``name``;
- as a key of a dict literal passed beside the def itself
  (``benchmark.pedantic(fn, kwargs={...})``);
- as a keyword of a call through a parameter or a table lookup
  (``trial_fn(...)``, ``TABLE[key](...)``), which sets it on every def the
  roots or reached code use as a value.

A def that forwards its ``**kw`` (or ``*args``) to a call, ``super().__init__``
included, passes on what its callers set and it does not take itself; a class
without an ``__init__`` passes its callers on to its bases.  Matching is by bare
name here too: when several defs share a callee name (``run``, ``send``), a call
of that name that passes an option sets it on each of them.

**Imports.**  A module-level import a non-``__init__`` module never names
(strings count) is unused.

Each unreached symbol and unset option must be in ``reach_allow.txt`` beside
this file, one ``module:name  (a|b|c|s|p) reason`` per line: (a) the paper Eq.,
Alg., Fig. or Sec. a test pins it to; (b) the live path a test holds against it
as the reference; (c) the open ROADMAP item that names it or its module; (s) a
bound that stops a runaway loop (``max_*``); (p) a
``tests/integration/test_sim_pins.py`` scenario sets it.  Allowlisted symbols
count as roots, so what they use needs no entry of its own.  An entry whose
symbol or option is gone, reached or set is stale.  Exit status 1 on an
unreached symbol or unset option without an entry, an unused import, or a
stale entry.
"""
from __future__ import annotations

import ast
import re
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
ALLOWLIST = Path(__file__).with_name("reach_allow.txt")
ROOT_DIRS = ("bench", "benchmarks", "examples", "tools")
_IDENT = re.compile(r"[A-Za-z_]\w*")
_ENTRY = re.compile(r"(\S+:[\w.]+)\s+(\([abcps]\) \S.*)$")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)
_ALL_POSITIONS = float("inf")
DYNAMIC = "*"  # the callee of a call through a parameter or a table lookup


def _docstrings(tree: ast.Module) -> set[int]:
    """``id()`` of every docstring constant in ``tree``."""
    return {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, *_DEFS))
        and node.body and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }


def _names(node: ast.AST, docstrings: set[int]) -> set[str]:
    """Identifiers ``node`` contains: names, attributes, import and keyword
    names, and identifiers inside string literals other than docstrings."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.update(_IDENT.findall(sub.name))
            if sub.asname:
                names.add(sub.asname)
        elif isinstance(sub, ast.keyword) and sub.arg:
            names.add(sub.arg)
        elif isinstance(sub, (ast.Global, ast.Nonlocal)):
            names.update(sub.names)
        elif (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
                and id(sub) not in docstrings):
            names.update(_IDENT.findall(sub.value))
    return names


def _parse(path: Path) -> tuple[ast.Module, set[int]]:
    tree = ast.parse(path.read_text(), str(path))
    return tree, _docstrings(tree)


def _is_root_statement(stmt: ast.stmt) -> bool:
    if isinstance(stmt, (ast.Import, ast.ImportFrom)):
        return False
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        targets = [stmt.target]
    else:
        targets = []
    return not any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


# ------------------------------------------------------------------ options

def _name(node: ast.AST) -> str | None:
    """``f`` for ``f`` and ``a.b.f``; None for anything else."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _str_keys(nodes) -> set[str]:
    return {k.value for k in nodes if isinstance(k, ast.Constant) and isinstance(k.value, str)}


def _params(fn) -> set[str]:
    a = fn.args
    return {x.arg for x in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if x}


def _is_dynamic(func: ast.AST, params: set[str]) -> bool:
    """A call through a table lookup or a parameter of the enclosing def."""
    return isinstance(func, ast.Subscript) or (
        isinstance(func, ast.Name) and func.id in params)


def _is_dunder(name: str) -> bool:
    return len(name) > 4 and name.startswith("__") and name.endswith("__")


def _calls(node: ast.AST, params=frozenset(), star=frozenset()):
    """``(call, params, star)`` for every call in ``node``: the parameter
    names of the defs around it, and their ``*args``/``**kw`` names."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (*_DEFS, ast.Lambda)):
            a = child.args
            yield from _calls(child, params | _params(child),
                              star | {x.arg for x in (a.vararg, a.kwarg) if x})
            continue
        if isinstance(child, ast.Call):
            yield child, params, star
        yield from _calls(child, params, star)


def _dict_keys(body: ast.AST) -> set[str]:
    """String keys of the dicts ``body`` builds: literals, ``dict(...)``,
    ``d.setdefault(key, ...)`` and ``d[key] = ...``."""
    keys = set()
    for sub in ast.walk(body):
        if isinstance(sub, ast.Dict):
            keys |= _str_keys(sub.keys)
        elif isinstance(sub, ast.Call) and _name(sub.func) == "dict":
            keys |= {kw.arg for kw in sub.keywords if kw.arg}
        elif isinstance(sub, ast.Call) and _name(sub.func) == "setdefault":
            keys |= _str_keys(sub.args[:1])
        elif isinstance(sub, ast.Subscript) and isinstance(sub.ctx, ast.Store):
            keys |= _str_keys([sub.slice])
    return keys


@dataclass
class Calls:
    """What the calls in some bodies pass, by callee name."""

    keywords: defaultdict = field(default_factory=lambda: defaultdict(set))
    positional: Counter = field(default_factory=Counter)  # most positional args
    values: set = field(default_factory=set)    # names used other than as a callee
    keys: set = field(default_factory=set)      # every dict key built
    expanded: set = field(default_factory=set)  # callees given a ``**`` dict

    def add(self, body: ast.AST) -> None:
        """Record every call in ``body``.  ``*args`` of the enclosing def is a
        forward (:func:`_forwards`), not a setting of every position."""
        self.keys |= _dict_keys(body)
        callees = set()
        for call, params, star in _calls(ast.Module([body], [])):
            callees.add(id(call.func))
            if _is_dynamic(call.func, params):
                self.keywords[DYNAMIC] |= {kw.arg for kw in call.keywords if kw.arg}
                continue
            args = [*call.args, *(kw.value for kw in call.keywords)]
            beside = set().union(*(_str_keys(d.keys) for d in args if isinstance(d, ast.Dict)))
            for arg in args if beside else ():
                if _name(arg):
                    self.keywords[_name(arg)] |= beside
            name = _name(call.func)
            if name is None:
                continue
            for kw in call.keywords:
                if kw.arg:
                    self.keywords[name].add(kw.arg)
                else:
                    self.expanded.add(name)
            n = 0
            for arg in call.args:
                if isinstance(arg, ast.Starred):
                    if _name(arg.value) not in star:
                        n = _ALL_POSITIONS
                    break
                n += 1
            self.positional[name] = max(self.positional[name], n)
        annotations = {id(n) for sub in ast.walk(body)
                       for a in (getattr(sub, "annotation", None), getattr(sub, "returns", None))
                       if a is not None for n in ast.walk(a)}
        self.values |= {_name(sub) for sub in ast.walk(body)
                        if isinstance(sub, (ast.Name, ast.Attribute))
                        and id(sub) not in callees and id(sub) not in annotations}


@dataclass(frozen=True)
class Option:
    callee: str          # the name callers call
    name: str
    index: float | None  # positional index, None when keyword-only
    field: bool          # a dataclass field, so ``replace`` sets it too


@dataclass
class Def:
    """A def or class, keyed by the name its callers call."""

    callee: str
    params: set        # the parameter names it takes itself
    n_positional: int  # how many named positional parameters
    forwards: list     # (target callee, index of its ``*args`` or None, passes ``**kw``)


def _forwards(fn, bases=()) -> list:
    """Calls in ``fn`` that pass on its ``*args``/``**kw``; ``super().__init__``
    calls go to ``bases``."""
    star, dstar = fn.args.vararg, fn.args.kwarg
    out = []
    for call in ast.walk(fn):
        if not isinstance(call, ast.Call):
            continue
        index = next((i for i, arg in enumerate(call.args)
                      if isinstance(arg, ast.Starred) and star is not None
                      and _name(arg.value) == star.arg), None)
        kw = dstar is not None and any(
            k.arg is None and _name(k.value) == dstar.arg for k in call.keywords)
        if index is None and not kw:
            continue
        func = call.func
        if (isinstance(func, ast.Attribute) and func.attr == "__init__"
                and isinstance(func.value, ast.Call) and _name(func.value.func) == "super"):
            targets = bases
        elif _is_dynamic(func, _params(fn)):
            targets = [DYNAMIC]
        else:
            targets = [_name(func)] if _name(func) else []
        out.extend((t, index, kw) for t in targets)
    return out


def _field_default(item: ast.AnnAssign) -> bool | None:
    """Whether a dataclass field has a default; None when ``__init__`` does
    not take it."""
    value = item.value
    if "ClassVar" in ast.unparse(item.annotation):
        return None
    if isinstance(value, ast.Call) and _name(value.func) == "field":
        kw = {k.arg: k.value for k in value.keywords}
        init = kw.get("init")
        if isinstance(init, ast.Constant) and init.value is False:
            return None
        return "default" in kw or "default_factory" in kw
    return value is not None


def _module_options(tree: ast.Module, module: str, path: Path):
    """``(options, where, defs)`` of one module."""
    options, where, defs = {}, {}, []
    hooks = {item.value.id for stmt in tree.body if isinstance(stmt, ast.ClassDef)
             for item in stmt.body if isinstance(item, ast.Assign)
             and isinstance(item.value, ast.Name)
             and any(_is_dunder(_name(t) or "") for t in item.targets)}

    def option(key: str, opt: Option, line: int) -> None:
        options[key], where[key] = opt, (path, line)

    def add(fn, callee: str, skip_first: bool, key: str, bases=()) -> None:
        args = fn.args
        positional = (args.posonlyargs + args.args)[skip_first:]
        star = {a.arg for a in (args.vararg, args.kwarg) if a}
        defs.append(Def(callee, _params(fn) - star, len(positional), _forwards(fn, bases)))
        if (_is_dunder(fn.name) and fn.name != "__init__") or fn.name in hooks:
            return
        first_default = len(positional) - len(args.defaults)
        for i, a in enumerate(positional[first_default:], first_default):
            option(f"{key}.{a.arg}", Option(callee, a.arg, i, False), a.lineno)
        for a, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                option(f"{key}.{a.arg}", Option(callee, a.arg, None, False), a.lineno)

    def visit(fn, callee: str, skip_first: bool, key: str, bases=()) -> None:
        add(fn, callee, skip_first, key, bases)
        for sub in ast.walk(fn):
            if sub is not fn and isinstance(sub, _DEFS):
                add(sub, sub.name, False, f"{key}.{sub.name}")

    for stmt in tree.body:
        if isinstance(stmt, _DEFS):
            visit(stmt, stmt.name, False, f"{module}:{stmt.name}")
        if not isinstance(stmt, ast.ClassDef):
            continue
        key = f"{module}:{stmt.name}"
        bases = [b for b in map(_name, stmt.bases) if b]
        is_dataclass = any(_name(d.func if isinstance(d, ast.Call) else d) == "dataclass"
                           for d in stmt.decorator_list)
        has_init, index = is_dataclass, 0
        for item in stmt.body:
            if isinstance(item, _DEFS) and item.name == "__init__":
                has_init = True
                visit(item, stmt.name, True, key, bases)
            elif isinstance(item, _DEFS):
                static = any(_name(d) == "staticmethod" for d in item.decorator_list)
                visit(item, item.name, not static, f"{key}.{item.name}")
            elif (is_dataclass and isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)):
                has_default = _field_default(item)
                if has_default:
                    name = item.target.id
                    option(f"{key}.{name}", Option(stmt.name, name, index, True), item.lineno)
                if has_default is not None:
                    index += 1
        if is_dataclass:
            defs.append(Def(stmt.name, set(), 0, []))
        elif not has_init:
            defs.append(Def(stmt.name, set(), 0, [(b, 0, True) for b in bases]))
    return options, where, defs


def _unused_imports(tree: ast.Module, docstrings: set[int], module: str) -> list[str]:
    used = set()
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
                and id(sub) not in docstrings):
            used.update(_IDENT.findall(sub.value))
    out = []
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound != "*" and bound not in used:
                    out.append(f"{module}:{bound}")
    return out


# --------------------------------------------------------------------- scan

@dataclass
class Scan:
    nodes: dict = field(default_factory=dict)        # symbol key -> names its body contains
    bodies: dict = field(default_factory=dict)       # symbol key -> its def or class
    where: dict = field(default_factory=dict)        # key -> (path, line[, n_lines])
    roots: set = field(default_factory=set)          # names the roots contain
    root_bodies: list = field(default_factory=list)  # root statements and files
    options: dict = field(default_factory=dict)      # option key -> Option
    defs: list = field(default_factory=list)         # every Def
    unused_imports: list = field(default_factory=list)


def scan(repo: Path) -> Scan:
    s = Scan()
    for path in sorted((repo / "src" / "repro").rglob("*.py")):
        tree, docstrings = _parse(path)
        rel = path.relative_to(repo)
        module = ".".join(path.relative_to(repo / "src").with_suffix("").parts)
        module = module.removesuffix(".__init__")
        is_main, is_init = path.name == "__main__.py", path.name == "__init__.py"
        if not is_init:
            s.unused_imports += _unused_imports(tree, docstrings, module)
        if is_main:
            s.roots |= _names(tree, docstrings)
            s.root_bodies.append(tree)
            continue
        options, where, defs = _module_options(tree, module, rel)
        s.options.update(options)
        s.where.update(where)
        s.defs += defs
        for stmt in tree.body:
            if isinstance(stmt, (*_DEFS, ast.ClassDef)):
                key = f"{module}:{stmt.name}"
                s.nodes[key] = _names(stmt, docstrings)
                s.bodies[key] = stmt
                s.where[key] = (rel, stmt.lineno, stmt.end_lineno - stmt.lineno + 1)
            elif not is_init and _is_root_statement(stmt):
                s.roots |= _names(stmt, docstrings)
                s.root_bodies.append(stmt)
    for d in ROOT_DIRS:
        for path in sorted((repo / d).rglob("*.py")):
            if path.resolve() != Path(__file__).resolve():
                tree, docstrings = _parse(path)
                s.roots |= _names(tree, docstrings)
                s.root_bodies.append(tree)
    return s


def reached(nodes: dict, roots: set[str], extra=()) -> set[str]:
    """Keys of ``nodes`` reached from ``roots`` and the nodes in ``extra``."""
    by_name = {}
    for key in nodes:
        by_name.setdefault(key.rsplit(":", 1)[1], []).append(key)
    live, todo = set(extra), list(roots)
    for key in extra:
        todo.extend(nodes.get(key, ()))
    seen = set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for key in by_name.get(name, ()):
            live.add(key)
            todo.extend(nodes[key])
    return live & nodes.keys()


def options_set(s: Scan, live: set[str], extra=()) -> set[str]:
    """Option keys the roots, the ``live`` symbol nodes and the ``extra``
    bodies set."""
    calls = Calls()
    for body in [*s.root_bodies, *(s.bodies[k] for k in live), *extra]:
        calls.add(body)
    for name in calls.expanded:
        calls.keywords[name] |= calls.keys

    def keywords(callee: str) -> set[str]:
        if callee in calls.values:
            return calls.keywords[callee] | calls.keywords[DYNAMIC]
        return calls.keywords[callee]

    changed = True
    while changed:  # through the forwards, until nothing new passes
        changed = False
        for d in s.defs:
            for target, index, kw in d.forwards:
                passed = keywords(d.callee) - d.params if kw else set()
                n = 0 if index is None else (
                    index + max(0, calls.positional[d.callee] - d.n_positional))
                if not passed <= calls.keywords[target] or n > calls.positional[target]:
                    calls.keywords[target] |= passed
                    calls.positional[target] = max(calls.positional[target], n)
                    changed = True
    return {k for k, o in s.options.items()
            if o.name in keywords(o.callee)
            or (o.field and o.name in calls.keywords["replace"])
            or (o.index is not None and calls.positional[o.callee] > o.index)}


def read_allowlist(path: Path = ALLOWLIST) -> dict[str, str]:
    """``module:name`` -> reason; a line without an (a), (b), (c), (s) or (p)
    reason raises."""
    allow = {}
    for n, line in enumerate(path.read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        m = _ENTRY.match(line)
        if m is None:
            raise ValueError(f"{path.name}:{n}: expected "
                             f"'module:name  (a|b|c|s|p) reason', got {line!r}")
        allow[m[1]] = m[2]
    return allow


@dataclass
class Report:
    unreached: list       # symbols without an entry
    unset: list           # options without an entry
    unused_imports: list
    stale: list           # entries that are gone, reached or set
    n_options: int
    where: dict


def check(repo: Path, allow: dict[str, str]) -> Report:
    s = scan(repo)
    live = reached(s.nodes, s.roots)
    kept = reached(s.nodes, s.roots, extra=allow.keys() & s.nodes.keys())
    unreached = sorted(s.nodes.keys() - kept - allow.keys())
    done = options_set(s, kept)
    unset = sorted(s.options.keys() - done - allow.keys())
    stale = sorted(k for k in allow
                   if k in live or k in done or (k not in s.nodes and k not in s.options))
    return Report(unreached, unset, sorted(s.unused_imports), stale,
                  len(s.options), s.where)


def main() -> int:
    r = check(REPO, read_allowlist())
    for key in r.unreached:
        path, line, size = r.where[key]
        print(f"unreached: {key}  {path}:{line} ({size} lines)")
    for key in r.unset:
        path, line = r.where[key]
        print(f"unset option: {key}  {path}:{line}")
    for key in r.unused_imports:
        print(f"unused import: {key}")
    for key in r.stale:
        print(f"stale allowlist entry: {key}")
    print(f"{r.n_options} options")
    return 1 if r.unreached or r.unset or r.unused_imports or r.stale else 0


if __name__ == "__main__":
    sys.exit(main())
