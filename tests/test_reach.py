"""Every top-level ``src/repro`` function and class is reached from an entry
point, every option (a defaulted parameter or dataclass field) is set by
one, and no module imports what it never names — or the symbol or option
is allowlisted with a reason (``tools/reach.py``).

A symbol only tests name fails here: delete it with its tests and
re-exports, move it into ``tests/`` when tests only use it as an input,
or add a ``tools/reach_allow.txt`` entry with an (a), (b) or (c) reason.
An option only tests set fails the same way: make it a constant (its
default), or add an entry with an (a), (b), (c), (s) or (p) reason.
"""

import ast
import importlib.util
import re
import sys
import textwrap
from pathlib import Path

import pytest

from repro.experiments.paper_settings import ARTEFACTS

REPO = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("reach", REPO / "tools" / "reach.py")
reach = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("reach", reach)  # dataclasses resolve their module
_spec.loader.exec_module(reach)


@pytest.fixture(scope="module")
def allow():
    return reach.read_allowlist()


@pytest.fixture(scope="module")
def result(allow):
    return reach.check(REPO, allow)


def test_every_symbol_is_reached_or_allowlisted(result):
    lines = [f"{k}  {result.where[k][0]}:{result.where[k][1]}" for k in result.unreached]
    assert not result.unreached, "reached only from tests or nowhere:\n" + "\n".join(lines)


def test_every_option_is_set_or_allowlisted(result):
    lines = [f"{k}  {result.where[k][0]}:{result.where[k][1]}" for k in result.unset]
    assert not result.unset, "set only by tests or nowhere:\n" + "\n".join(lines)


def test_no_unused_imports(result):
    assert not result.unused_imports, f"imported and never named: {result.unused_imports}"


def test_allowlist_has_no_stale_entries(result):
    assert not result.stale, f"allowlist entries that are gone, reached or set: {result.stale}"


def test_allowlist_entries_are_still_needed_by_their_reason(allow):
    test_files = [p for p in (REPO / "tests").rglob("*.py") if p.name != "test_reach.py"]
    tests_text = "\n".join(p.read_text() for p in test_files)
    s = reach.scan(REPO)
    kept = reach.reached(s.nodes, s.roots, extra=allow.keys() & s.nodes.keys())
    pins = REPO / "tests" / "integration" / "test_sim_pins.py"
    set_by_tests = reach.options_set(s, kept, [ast.parse(p.read_text()) for p in test_files])
    set_by_pins = reach.options_set(s, kept, [ast.parse(pins.read_text())])
    roadmap = (REPO / "ROADMAP.md").read_text()
    for key, reason in allow.items():
        module, qualname = key.split(":")
        owner, name = qualname.split(".")[0], qualname.split(".")[-1]
        path = "/".join(module.split(".")[1:]) + ".py"
        if key in s.nodes:
            assert re.search(rf"\b{name}\b", tests_text), f"{key}: no test names it"
        elif reason.startswith("(s)"):
            assert name.startswith("max_"), f"{key}: (s) is for max_* loop bounds"
        elif reason.startswith("(p)"):
            assert key in set_by_pins, f"{key}: no sim-pin scenario sets it"
        else:
            assert key in set_by_tests, f"{key}: no test sets it"
        if reason.startswith("(a)"):
            assert any(row in reason for row in ARTEFACTS), (
                f"{key}: (a) names no manifest row ({', '.join(ARTEFACTS)})"
            )
        if reason.startswith("(c)"):
            assert re.search(rf"\b{owner}\b", roadmap) or path in roadmap, (
                f"{key}: ROADMAP.md names neither {owner} nor {path}"
            )


def _tree(tmp_path, files):
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    return tmp_path


def _unreached(repo, allow=None):
    r = reach.check(repo, allow or {})
    return r.unreached, r.stale


def _unset(repo, allow=None):
    r = reach.check(repo, allow or {})
    return r.unset, r.stale


BASE = {
    "src/repro/__main__.py": """
        from .mod import entry
        entry()
    """,
    "src/repro/mod.py": '''
        """Module docstring naming only_in_docstring."""
        TABLE = {"key": helper_from_table}

        def entry():
            return middle()

        def middle():
            return leaf()

        def leaf():
            return 1

        def helper_from_table():
            return 2

        def only_in_docstring():
            """Named by the module docstring and by itself."""
            return only_in_docstring
    ''',
    "src/repro/pkg/__init__.py": """
        from .other import exported
        __all__ = ["exported"]
    """,
    "src/repro/pkg/other.py": """
        def exported():
            return 3

        def by_string():
            return 4
    """,
    "bench/trace.py": """
        TARGETS = ("repro.pkg.other:by_string",)
    """,
    "tests/test_x.py": """
        from repro.pkg import exported
        from repro.mod import only_in_docstring
    """,
}


def test_reexport_and_tests_do_not_reach(tmp_path):
    unreached, _ = _unreached(_tree(tmp_path, BASE))
    assert unreached == ["repro.mod:only_in_docstring", "repro.pkg.other:exported"]


def test_reach_is_transitive_and_counts_module_statements(tmp_path):
    repo = _tree(tmp_path, BASE)
    s = reach.scan(repo)
    live = reach.reached(s.nodes, s.roots)
    assert {"repro.mod:entry", "repro.mod:middle", "repro.mod:leaf"} <= live
    assert "repro.mod:helper_from_table" in live


def test_identifier_in_string_literal_reaches(tmp_path):
    repo = _tree(tmp_path, BASE)
    assert "repro.pkg.other:by_string" not in _unreached(repo)[0]
    (repo / "bench" / "trace.py").write_text("TARGETS = ()\n")
    assert "repro.pkg.other:by_string" in _unreached(repo)[0]


def test_new_unreferenced_function_fails(tmp_path):
    repo = _tree(tmp_path, BASE)
    with open(repo / "src/repro/mod.py", "a") as fh:
        fh.write("\n\ndef added_for_tests_only():\n    return 5\n")
    assert "repro.mod:added_for_tests_only" in _unreached(repo)[0]


def test_allowlisted_symbols_keep_what_they_use(tmp_path):
    repo = _tree(tmp_path, {**BASE, "src/repro/pkg/other.py": """
        def exported():
            return inner()

        def inner():
            return 3

        def by_string():
            return 4
    """})
    unreached, stale = _unreached(repo, {"repro.pkg.other:exported": "(c) item"})
    assert unreached == ["repro.mod:only_in_docstring"]
    assert stale == []


def test_stale_entries_fail(tmp_path):
    repo = _tree(tmp_path, BASE)
    allow = {
        "repro.mod:only_in_docstring": "(b) kept",
        "repro.mod:leaf": "(a) reached from __main__",
        "repro.mod:deleted": "(c) gone",
    }
    unreached, stale = _unreached(repo, allow)
    assert unreached == ["repro.pkg.other:exported"]
    assert stale == ["repro.mod:deleted", "repro.mod:leaf"]


def test_entries_without_a_reason_are_rejected(tmp_path):
    path = tmp_path / "allow.txt"
    path.write_text(
        "repro.mod:f  (a) Eq. 4\n"
        "repro.mod:f.max_events  (s) events one run may process\n"
        "repro.mod:Cls.method.loss_rate  (p) the lossy pin scenario\n"
    )
    assert reach.read_allowlist(path) == {
        "repro.mod:f": "(a) Eq. 4",
        "repro.mod:f.max_events": "(s) events one run may process",
        "repro.mod:Cls.method.loss_rate": "(p) the lossy pin scenario",
    }
    for bad in ("repro.mod:f\n", "repro.mod:f  (d) other\n", "repro.mod:f  because\n"):
        path.write_text(bad)
        with pytest.raises(ValueError, match="module:name"):
            reach.read_allowlist(path)


OPTIONS = {
    "src/repro/__main__.py": """
        from dataclasses import replace
        from .opts import Sub, Config, run, spread
        run(1, 2, fast=True)
        spread(1, **{"b": 2})
        Sub(1, scale=3.0)
        replace(Config(), size=4)
    """,
    "src/repro/opts.py": """
        from dataclasses import dataclass

        def run(a, b=0, c=1, fast=False, slow=False):
            return a + b + c

        def spread(a, b=0, c=0):
            return a + b + c

        class Base:
            def __init__(self, x, scale=1.0, shift=0.0):
                self.x = x * scale + shift

        class Sub(Base):
            def __init__(self, *args, **kw):
                super().__init__(*args, **kw)

        @dataclass
        class Config:
            size: int = 1
            depth: int = 2
    """,
    "tests/test_opts.py": """
        from repro.opts import run
        run(1, slow=True)
    """,
}


def test_option_only_tests_set_is_reported(tmp_path):
    unset, _ = _unset(_tree(tmp_path, OPTIONS))
    assert "repro.opts:run.slow" in unset
    assert "repro.opts:run.fast" not in unset


def test_positional_and_expanded_dict_keys_set(tmp_path):
    unset, _ = _unset(_tree(tmp_path, OPTIONS))
    # run(1, 2, ...) sets b by position, not c; spread(1, **{"b": 2}) sets b.
    assert "repro.opts:run.b" not in unset
    assert "repro.opts:run.c" in unset
    assert "repro.opts:spread.b" not in unset
    assert "repro.opts:spread.c" in unset


def test_super_init_forward_counts_for_the_base(tmp_path):
    unset, _ = _unset(_tree(tmp_path, OPTIONS))
    assert "repro.opts:Base.scale" not in unset
    assert "repro.opts:Base.shift" in unset


def test_replace_sets_a_dataclass_field(tmp_path):
    unset, _ = _unset(_tree(tmp_path, OPTIONS))
    assert "repro.opts:Config.size" not in unset
    assert "repro.opts:Config.depth" in unset


def test_stale_option_entry_fails(tmp_path):
    repo = _tree(tmp_path, OPTIONS)
    allow = {
        "repro.opts:run.slow": "(c) item",
        "repro.opts:run.fast": "(a) set by __main__",
        "repro.opts:run.gone": "(s) deleted",
    }
    unset, stale = _unset(repo, allow)
    assert "repro.opts:run.slow" not in unset
    assert stale == ["repro.opts:run.fast", "repro.opts:run.gone"]


def test_unused_import_is_reported(tmp_path):
    repo = _tree(tmp_path, {**OPTIONS, "src/repro/extra.py": """
        import os
        from typing import Optional, Sequence

        def f(x: Sequence) -> str:
            return "Optional"
    """})
    r = reach.check(repo, {})
    assert r.unused_imports == ["repro.extra:os"]


def test_option_under_a_repeated_name_counts_by_name(tmp_path):
    repo = _tree(tmp_path, {
        "src/repro/__main__.py": """
            from .twin import A, B
            A().run(1, fast=True)
            B().run(2)
        """,
        "src/repro/twin.py": """
            class A:
                def run(self, x, fast=False, slow=False):
                    return x

            class B:
                def run(self, x, fast=False, slow=False):
                    return x
        """,
        "tests/test_twin.py": """
            from repro.twin import B
            B().run(1, slow=True)
        """,
    })
    unset, _ = _unset(repo)
    # A call of ``run`` that passes ``fast`` sets it on both defs; only a
    # test passes ``slow``, so it is reported on both.
    assert "repro.twin:A.run.fast" not in unset
    assert "repro.twin:B.run.fast" not in unset
    assert {"repro.twin:A.run.slow", "repro.twin:B.run.slow"} <= set(unset)
