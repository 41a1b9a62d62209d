"""Smoke test: every demo script runs to completion.

The demos drive the state functions, a session run alone as a group of
one, and whole runs end to end.  Demos 01, 02 and 05 assert their own
headline results; for 03 and 04, which only print tables, exit code 0 is
the whole check.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from test_harness import package_env

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=package_env(),
    )
    assert proc.returncode == 0, proc.stderr
