"""DESIGN.md section 3's module map lists exactly the modules in ``src/repro``."""

import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"


def _map_files() -> set[str]:
    text = (REPO / "DESIGN.md").read_text()
    section = text[text.index("## 3. System inventory"):
                   text.index("## 4. Per-experiment")]
    block = section[section.index("```\nsrc/repro/\n") + 4:]
    block = block[:block.index("```")]
    files, package = set(), None
    for line in block.splitlines():
        if m := re.match(r"  (\w+\.py)\s", line):
            files.add(m[1])
        elif m := re.match(r"  (\w+)/\s", line):
            package = m[1]
        elif m := re.match(r"    (\w+\.py)\s", line):
            files.add(f"{package}/{m[1]}")
    return files


def test_every_module_is_in_the_map():
    modules = {
        p.relative_to(SRC).as_posix()
        for p in SRC.rglob("*.py") if p.name != "__init__.py"
    }
    assert modules - _map_files() == set(), "modules missing from DESIGN.md section 3"


def test_every_mapped_file_exists():
    missing = {f for f in _map_files() if not (SRC / f).is_file()}
    assert not missing, f"DESIGN.md section 3 names files that do not exist: {missing}"
