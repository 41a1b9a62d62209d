"""Print every end-to-end and per-layer metric of every workload, with units.

    python3 perfbench/report.py [--seed N] [--seconds S]

Runs ``run.py`` for each workload twice, with tracing off and on, each in a
fresh process, and prints one row per metric, the failed-session fraction
and the traced layer shares that justify each workload's place in the set.
``--seconds`` defaults to the ``run_seconds`` of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        sys.exit(f"{workload} trace={trace}: run.py exited {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        if line.startswith("gate ") or line.startswith("info absent"):
            print(f"  {workload}: {line}")
    return json.loads(lines[-1])


def self_share(metrics: dict, prefixes: tuple) -> float:
    total = sum(m["value"] for name, m in metrics.items()
                if name.endswith(".self_s") and name.startswith(prefixes))
    return total / metrics["trace.wall_s"]["value"]


def layer_shares(workload: str, m: dict) -> list[str]:
    """The traced facts each workload was chosen for (see BENCHMARK.json ``why``)."""
    value = {name: v["value"] for name, v in m.items()}
    if workload == "big_block_check":
        share = self_share(m, ("hyperstate.", "adversary."))
        return [f"hyperstate+adversary self share {share:.3f} (expected >= 0.5)"]
    if workload == "hostile_channel":
        self_part = self_share(m, ("channel.", "adversary."))
        inclusive = (value["channel.transmit.incl_s"] + value["adversary.apply_defenses.self_s"]
                     + value["adversary.guess_encoding_op.self_s"]) / value["trace.wall_s"]
        return [f"channel+adversary self share {self_part:.3f}",
                f"channel.transmit inclusive + other adversary self share {inclusive:.3f} (expected >= 0.5)"]
    calls = sum(v for name, v in value.items() if name.startswith("adversary.") and name.endswith(".calls"))
    return [f"adversary calls {calls:g} (expected 0)"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    args = parser.parse_args()
    print(f"{'workload':17s} {'metric':42s} {'value':>14s} unit")
    for workload in (w["name"] for w in SPEC["workloads"]):
        plain = bench(workload, args.seed, args.seconds, 0)
        traced = bench(workload, args.seed, args.seconds, 1)
        rows = [(name, m["value"], m["unit"]) for name, m in plain["metrics"].items()]
        rows.append(("failed_frac", plain["failed"] / plain["attempted"], "ratio"))
        rows += [(name, m["value"], m["unit"]) for name, m in traced["metrics"].items()]
        for name, value, unit in rows:
            print(f"{workload:17s} {name:42s} {value:14.6g} {unit}")
        ok = plain["correct"] and traced["correct"]
        print(f"{workload:17s} correctness gates {'pass' if ok else 'FAIL'}; "
              + "; ".join(layer_shares(workload, traced["metrics"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
