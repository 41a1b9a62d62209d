"""Every demo script runs to completion and prints the same bytes as before.

The demos drive the state functions, a session run alone as a group of
one, and whole runs end to end.  Demos 01, 02 and 05 assert their own
headline results; 03 and 04 only print tables.  Each demo's stdout is
pinned as a sha256 digest, so a change of draw order, of the generator a
demo hands in (demo 02 draws its message from the generator it gave
``SessionGroup``), or of any printed number shows.
"""

from __future__ import annotations

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

from test_harness import package_env

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))

# sha256 of each demo's stdout
STDOUT_DIGESTS = {
    "01_hyperdense_coding": "3aed625165813963ba1a0534cbe4e1c4aaae1e5f2de03d4892ee81369aa9e70e",
    "02_session_walkthrough": "42be4cb758c587c0e2219cdfd5b85e46e179db7213650d6780b4ca06fe94142c",
    "03_eavesdropper": "7408493c764475213396a7212d9d4d15e61ba891217cd77e1327ac5f9a21790d",
    "04_source_and_noise": "8228a1f4ced80ecdd1a73c7389a9bb42ed4f11af6873adf1b299359ed8b936c7",
    "05_trojan_defenses": "b9e35fcafa80b9bb2d7c0234f19280e404b89b28dee39fa05ae0ae9ab517c8c3",
}


def test_demos_found():
    assert [demo.stem for demo in DEMOS] == sorted(STDOUT_DIGESTS)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        cwd=tmp_path,
        env=package_env(),
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_DIGESTS[demo.stem]
