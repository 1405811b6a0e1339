"""Every top-level ``src/repro`` function and class is reached from an entry
point or allowlisted with a reason (``tools/reach.py``).

A symbol only tests name fails here: delete it with its tests and
re-exports, move it into ``tests/`` when tests only use it as an input,
or add a ``tools/reach_allow.txt`` entry with an (a), (b) or (c) reason.
"""

import importlib.util
import re
import textwrap
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("reach", REPO / "tools" / "reach.py")
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)


@pytest.fixture(scope="module")
def allow():
    return reach.read_allowlist()


@pytest.fixture(scope="module")
def result(allow):
    return reach.check(REPO, allow)


def test_every_symbol_is_reached_or_allowlisted(result):
    unreached, _, where = result
    lines = [f"{k}  {where[k][0]}:{where[k][1]}" for k in unreached]
    assert not unreached, "reached only from tests or nowhere:\n" + "\n".join(lines)


def test_allowlist_has_no_stale_entries(result):
    _, stale, _ = result
    assert not stale, f"allowlist entries that are gone or now reached: {stale}"


def test_allowlist_entries_are_still_needed_by_their_reason(allow):
    tests_text = "\n".join(
        p.read_text() for p in (REPO / "tests").rglob("*.py")
        if p.name != "test_reach.py"
    )
    roadmap = (REPO / "ROADMAP.md").read_text()
    for key, reason in allow.items():
        module, symbol = key.split(":")
        assert re.search(rf"\b{symbol}\b", tests_text), f"{key}: no test names it"
        if reason.startswith("(c)"):
            path = "/".join(module.split(".")[1:]) + ".py"
            assert any(s in roadmap for s in (f"`{symbol}`", f".{symbol}`", path)), (
                f"{key}: ROADMAP.md names neither it nor {path}"
            )


def _tree(tmp_path, files):
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    return tmp_path


def _unreached(repo, allow=None):
    unreached, stale, _ = reach.check(repo, allow or {})
    return unreached, stale


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
    nodes, _, roots = reach.scan(repo)
    live = reach.reached(nodes, roots)
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
    path.write_text("repro.mod:f  (a) Eq. 4\n")
    assert reach.read_allowlist(path) == {"repro.mod:f": "(a) Eq. 4"}
    for bad in ("repro.mod:f\n", "repro.mod:f  (d) other\n", "repro.mod:f  because\n"):
        path.write_text(bad)
        with pytest.raises(ValueError, match="module:symbol"):
            reach.read_allowlist(path)
