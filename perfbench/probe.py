"""Fresh-interpreter probes started by ``run.py``; prints one JSON line.

    python3 perfbench/probe.py setup CONFIG
        time to import the package and load CONFIG (``setup_s``)
    python3 perfbench/probe.py simulate ARG...
        run ``hyperqsdc.cli.main(["simulate", ARG...])`` once and report the
        exit code and the process's peak resident set size (``peak_rss_mb``)
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(SRC))
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        started = time.perf_counter()
        import hyperqsdc.cli  # noqa: F401  (the entry point a user runs)
        from hyperqsdc.harness import load_run_config

        load_run_config(rest[0])
        print(json.dumps({"setup_s": time.perf_counter() - started}))
        return 0
    if mode == "simulate":
        from hyperqsdc.cli import main as cli_main

        code = cli_main(["simulate", *rest])
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
        print(json.dumps({"exit_code": code, "peak_rss_mb": peak_kib / 1024.0}))
        return 0
    print(f"unknown probe mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
