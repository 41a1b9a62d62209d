"""The suite's own pytest settings report every failure, a Hypothesis test's too."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# one failing property test, then one failing plain test
FAILING_TESTS = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(n):
    assert n < 0


def test_plain_fails():
    assert False
"""


def test_a_failing_property_test_leaves_the_run_reporting(tmp_path):
    # under filterwarnings = ["error"], a warning raised while Hypothesis's
    # plugin reports a failure would stop the run with an INTERNALERROR, and
    # the failures after it would go unreported
    (tmp_path / "test_failing.py").write_text(FAILING_TESTS, encoding="utf-8")
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in child.stdout + child.stderr, child.stdout
    assert "2 failed" in child.stdout, child.stdout
