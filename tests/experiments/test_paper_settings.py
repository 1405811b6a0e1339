"""The manifest of the paper's artefacts (``experiments/paper_settings.py``).

Every ``benchmarks/`` test file is a root of the reachability check
(``tools/reach.py``), so each must earn its place: it reproduces a
manifest row, tests the round engine, or serves an open ROADMAP item
that its docstring's first line names.  The rows measured by closed
forms are held inside their bands here, since tier-1 does not run the
benchmarks.
"""

import ast
import re
from pathlib import Path

import pytest

from repro.experiments.paper_settings import ARTEFACTS
from repro.experiments.report import closed_form_measured

REPO = Path(__file__).resolve().parents[2]
#: benchmark files that test the round engine rather than one artefact
ENGINE_FILES = {
    "test_chaos_scale.py", "test_xlayer_scale.py", "test_round_latency.py",
    "test_sac_throughput.py", "test_sac_wire_validation.py",
    "test_wire_round_e2e.py",
}
_ITEM = re.compile(r'^For ROADMAP "([^"]+)": ')


def test_every_row_names_an_existing_benchmark_file():
    for row in ARTEFACTS.values():
        assert (REPO / row.benchmark).is_file(), f"{row.id}: no {row.benchmark}"
        assert row.band.keys() <= row.paper.keys(), f"{row.id}: band without a value"


def _open_items() -> str:
    roadmap = (REPO / "ROADMAP.md").read_text()
    return roadmap.split("## Open items", 1)[1]


def test_every_benchmark_file_has_a_reason():
    rows = {Path(row.benchmark).name for row in ARTEFACTS.values()}
    items = _open_items()
    for path in sorted((REPO / "benchmarks").glob("test_*.py")):
        if path.name in rows or path.name in ENGINE_FILES:
            continue
        doc = ast.get_docstring(ast.parse(path.read_text())) or ""
        match = _ITEM.match(doc)
        assert match, (f"{path.name}: not a manifest row or an engine file, and "
                       'its docstring does not start with For ROADMAP "<item>": ')
        title = match[1]
        assert re.search(rf"^- \*\*(\(new\) )?{re.escape(title)}", items, re.M), (
            f"{path.name}: no open ROADMAP item starts with {title!r}")


@pytest.fixture(scope="module")
def closed_forms():
    return closed_form_measured()


@pytest.mark.parametrize("figure", ["Fig. 13", "Fig. 14", "Eq. 10"])
def test_closed_form_rows_inside_their_bands(closed_forms, figure):
    row, measured = ARTEFACTS[figure], closed_forms[figure]
    assert row.band and not row.misses(measured), (measured, row.band)


def test_a_value_outside_or_missing_from_its_band_misses():
    row = ARTEFACTS["Fig. 13"]
    inside = {k: (lo + hi) / 2 for k, (lo, hi) in row.band.items()}
    assert row.misses(inside) == []
    assert row.misses({**inside, "Gb at m=6": 8.0}) == ["Gb at m=6"]
    assert row.misses({}) == list(row.band)
