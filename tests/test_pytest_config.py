"""The repository's pytest configuration keeps hypothesis's failure report.

pyproject.toml turns every DeprecationWarning into an error.  Hypothesis
writes its report of a failing property test through libcst, which warns
on import, so without the matching ignore entry a failing test prints an
INTERNALERROR traceback instead of its falsifying example.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING = """\
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 10
"""


def test_failing_hypothesis_test_reports_its_example(tmp_path):
    (tmp_path / "test_fails.py").write_text(FAILING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example" in out, out
    assert "INTERNALERROR" not in out, out
