"""Static reachability of the top-level functions and classes in ``src/repro``.

    python3 tools/reach.py

A node is every top-level ``def`` or ``class`` in ``src/repro/**/*.py``.  The
roots are ``src/repro/__main__.py``, the module-level statements of every
non-``__init__`` module (imports and ``__all__`` left out), and every ``.py``
file under ``bench/``, ``benchmarks/``, ``examples/`` and ``tools/`` (this file
left out).  A node is reached when a root or a reached node contains its name:
as a name, an attribute, an import or keyword name, or an identifier inside a
string literal other than a docstring (``bench/trace.py`` binds
``"repro.secure.sac:sac_average"`` strings).  Package ``__init__`` re-exports
and ``tests/`` are not roots, so code only tests use shows up.  Matching is by
bare name, so the check errs towards calling code reached.

Each unreached node must be in ``reach_allow.txt`` beside this file, one
``module:symbol  (a|b|c) reason`` per line: (a) the paper Eq., Alg., Fig. or
Sec. a test pins it to; (b) the live path a test holds against it as the
reference; (c) the open ROADMAP item that names it or its module.  Allowlisted
nodes count as roots, so what they use needs no entry of its own.  An entry
whose symbol is gone or reached is stale.  Exit status 1 on an unreached node
without an entry or a stale entry.
"""
from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
ALLOWLIST = Path(__file__).with_name("reach_allow.txt")
ROOT_DIRS = ("bench", "benchmarks", "examples", "tools")
_IDENT = re.compile(r"[A-Za-z_]\w*")
_ENTRY = re.compile(r"(\S+:\w+)\s+(\([abc]\) \S.*)$")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


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


def scan(repo: Path) -> tuple[dict, dict, set[str]]:
    """``(nodes, where, roots)``: ``nodes`` maps ``module:symbol`` to the names
    its body contains, ``where`` to ``(path, line, n_lines)``, and ``roots`` is
    the set of names the roots contain."""
    nodes, where, roots = {}, {}, set()
    for path in sorted((repo / "src" / "repro").rglob("*.py")):
        tree, docstrings = _parse(path)
        module = ".".join(path.relative_to(repo / "src").with_suffix("").parts)
        module = module.removesuffix(".__init__")
        is_main, is_init = path.name == "__main__.py", path.name == "__init__.py"
        for stmt in tree.body:
            if isinstance(stmt, (*_DEFS, ast.ClassDef)):
                key = f"{module}:{stmt.name}"
                if is_main:
                    roots |= _names(stmt, docstrings)
                else:
                    nodes[key] = _names(stmt, docstrings)
                    where[key] = (path.relative_to(repo), stmt.lineno,
                                  stmt.end_lineno - stmt.lineno + 1)
            elif is_main or (not is_init and _is_root_statement(stmt)):
                roots |= _names(stmt, docstrings)
    for d in ROOT_DIRS:
        for path in sorted((repo / d).rglob("*.py")):
            if path.resolve() != Path(__file__).resolve():
                roots |= _names(*_parse(path))
    return nodes, where, roots


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


def read_allowlist(path: Path = ALLOWLIST) -> dict[str, str]:
    """``module:symbol`` -> reason; a line without an (a), (b) or (c) reason raises."""
    allow = {}
    for n, line in enumerate(path.read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        m = _ENTRY.match(line)
        if m is None:
            raise ValueError(f"{path.name}:{n}: expected "
                             f"'module:symbol  (a|b|c) reason', got {line!r}")
        allow[m[1]] = m[2]
    return allow


def check(repo: Path, allow: dict[str, str]):
    """``(unreached, stale, where)``: unreached nodes without an allowlist
    entry, and entries whose symbol is gone or reached from the roots alone."""
    nodes, where, roots = scan(repo)
    live = reached(nodes, roots)
    kept = reached(nodes, roots, extra=allow.keys() & nodes.keys())
    unreached = sorted(nodes.keys() - kept - allow.keys())
    stale = sorted(k for k in allow if k not in nodes or k in live)
    return unreached, stale, where


def main() -> int:
    unreached, stale, where = check(REPO, read_allowlist())
    for key in unreached:
        path, line, size = where[key]
        print(f"unreached: {key}  {path}:{line} ({size} lines)")
    for key in stale:
        print(f"stale allowlist entry: {key}")
    return 1 if unreached or stale else 0


if __name__ == "__main__":
    sys.exit(main())
