"""Reduced-size smoke test of the benchmark harness.

Every workload runs one untraced and one traced pass at 2% of its size.
The test checks that every metric BENCHMARK.json names is emitted with
its unit and a sample count, that the correctness gate passes, and that
the benchmark refuses to run without the library sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402

run.import_library()
import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SCALE = 0.02


def test_workload_names_match_spec():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(WORKLOADS)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_metrics_and_gate(name, trace, capsys):
    result, setup_s = harness.run(name, seed=7, seconds=0, trace=trace, scale=SCALE)
    gate = result.gate
    assert gate.attempted > 0
    assert gate.failed == 0, gate.notes

    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    metrics = result.per_layer() if trace else result.end_to_end(setup_s)
    assert list(metrics) == [m["name"] for m in spec]
    for m in spec:
        value, unit, samples = metrics[m["name"]]
        assert unit == m["unit"], m["name"]
        assert math.isfinite(value), m["name"]
        assert any(ch.isdigit() for ch in samples), m["name"]
        if not trace or unit in ("s", "ms", "us"):
            assert value > 0, m["name"]

    full = run.report(result, setup_s, trace)
    printed = capsys.readouterr().out
    for m in spec:
        assert f"{m['name']} " in printed
        assert full["metrics"][m["name"]]["samples"]
    assert len(full["sha256"]) == 2 * len(result.workload.instances)


def test_refuses_without_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "index-sparse", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
