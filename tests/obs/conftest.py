"""Shared fixtures for the obs tests."""

import json

import pytest

from repro.__main__ import main


@pytest.fixture(scope="session")
def smoke_artifact(tmp_path_factory):
    """One smoke run of the canonical suite (seed 0, through the CLI).

    The suite is the slowest thing tier-1 runs, so every test that reads
    a seed-0 smoke artifact shares this one.  Treat it as read-only.
    """
    out = tmp_path_factory.mktemp("bench") / "BENCH_suite.json"
    rc = main([
        "bench", "--smoke", "--repeats", "1", "--warmup", "0",
        "--bench-out", str(out), "--log-level", "warning",
    ])
    assert rc == 0
    return json.loads(out.read_text())
