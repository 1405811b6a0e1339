"""Checks on the benchmark itself.  Run with ``python -m pytest bench -q``.

Not collected by the tier-1 suite (``testpaths = ["tests"]``): these start
child processes and take about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import compare
import run as bench_run

ROOT = bench_run.ROOT
BENCH = bench_run.BENCH_DIR
SPEC = bench_run.load_spec()
WORKLOADS = bench_run.workload_names(SPEC)


def _run(args, cwd=ROOT, script=os.path.join(BENCH, "run.py"), env=None):
    return subprocess.run([sys.executable, script, *args], cwd=cwd,
                          env=env or bench_run.child_env(),
                          capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def smoke_sets(tmp_path_factory):
    """Two smoke sets of the same seed, with the first one's stdout."""
    tmp = tmp_path_factory.mktemp("smoke")
    outs, stdout = [], None
    for i in range(2):
        out = str(tmp / f"set{i}.json")
        proc = _run(["--workload", "all", "--smoke", "--out", out])
        assert proc.returncode == 0, proc.stdout + proc.stderr
        stdout = stdout or proc.stdout
        with open(out) as fh:
            outs.append(json.load(fh))
    return outs, stdout


def test_every_name_is_printed_with_its_unit(smoke_sets):
    _, stdout = smoke_sets
    lines = stdout.splitlines()
    for name in WORKLOADS:
        assert any(line.startswith(f"-- {name} ") for line in lines)
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        rows = [line.split() for line in lines
                if line.startswith(m["name"] + " ")]
        assert len(rows) == len(WORKLOADS), m["name"]
        assert all(row[2] == m["unit"] for row in rows), m["name"]


def test_exact_metrics_repeat(smoke_sets):
    (first, second), _ = smoke_sets
    rows, _ = compare.compare(first, second, SPEC)
    exact = [r for r in rows if r[5] == "exact"]
    assert exact and all(r[6] == "equal" for r in exact), exact
    for w in first["workloads"].values():
        assert w["failed"] == 0 and w["info"]["sim_fingerprint"]
    assert first["environment"]["pins"] == bench_run.PINS


def test_corrupted_aggregate_counts_as_a_failure():
    for name in ("paper_round", "xlayer_lossy", "campaign_churn"):
        proc = _run(["--workload", name, "--smoke", "--corrupt-op", "1"],
                    script=os.path.join(BENCH, "harness.py"))
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["failed"] == 1 and not result["correct"]
        assert result["per_layer"]["fail_share"] == pytest.approx(
            1 / result["attempted"])
        assert "aggregate" in result["info"]["failures"][0]


@pytest.mark.parametrize("trace", [0, 1])
def test_contract_result_line(trace):
    proc = _run(["--workload", "xlayer_wide", "--smoke", "--seconds", "1",
                 "--seed", "5", "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        with open(os.path.join(BENCH, "out", "trace_xlayer_wide.json")) as fh:
            spans = json.load(fh)
        assert spans["spans"] and len(spans["columns"]) == 6


def test_no_result_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(["--workload", "xlayer_wide", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path,
                script=str(tmp_path / "bench" / "run.py"),
                env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
