"""Command line entry points.

Three subcommands:

``simulate``      run a batch of sessions from a config file, write a
                  JSON stats document (and optional JSONL transcripts
                  and a JSON document of the seconds per phase).
``attack-sweep``  rerun the configured scenario across one parameter
                  axis, write a CSV of pooled statistics per point.
``source-scan``   exact source fidelity and check error rates over an
                  (r, phi) grid, no sampling involved, write a CSV.

Every failure path prints a one-line diagnostic to stderr and exits
nonzero; success is silent apart from a timing note on stderr.

The argument parser is built once per process, on the first ``main`` call,
not at import: building one costs about a millisecond, which a process that
calls ``main`` many times would pay on every call.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys
from dataclasses import replace

from .harness import (
    SWEEP_AXES,
    attack_sweep,
    load_run_config,
    metrics_text,
    run,
    scan_csv,
    source_fidelity_scan,
    stats_text,
    sweep_csv,
)
from .protocol import ConfigError


def _float_list(raw: str) -> list[float]:
    try:
        return [float(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"expected a comma separated list of numbers, got {raw!r}") from None


def _str_list(raw: str) -> list[str]:
    return [part.strip() for part in raw.split(",") if part.strip()]


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _cmd_simulate(args) -> int:
    rc = load_run_config(args.config)
    if args.seed is not None:
        rc = replace(rc, seed=args.seed)  # checked like the file's [run] seed
    path = args.out + ".transcripts.jsonl"
    with open(path, "w", encoding="utf-8") if args.transcripts else contextlib.nullcontext() as fh:
        stats, _ = run(rc, transcripts=fh)
    _write(args.out, stats_text(rc, rc.seed, stats))
    if args.metrics:
        _write(args.metrics, metrics_text(stats))
    print(
        f"{stats.sessions} sessions ({stats.accepted} accepted, {stats.aborted} aborted) "
        f"in {stats.wall_time:.2f}s -> {args.out}",
        file=sys.stderr,
    )
    return 0


def _cmd_attack_sweep(args) -> int:
    rc = load_run_config(args.config)
    rows = attack_sweep(rc, args.axis, _str_list(args.values))
    _write(args.out, sweep_csv(args.axis, rows))
    print(f"{len(rows)} sweep points -> {args.out}", file=sys.stderr)
    return 0


def _cmd_source_scan(args) -> int:
    rows = source_fidelity_scan(_float_list(args.r), _float_list(args.phi))
    _write(args.out, scan_csv(rows))
    print(f"{len(rows)} grid points -> {args.out}", file=sys.stderr)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser; every call returns the same one."""
    parser = argparse.ArgumentParser(
        prog="hyperqsdc",
        description="Two-photon hyperentangled direct-communication simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run sessions from a config file")
    sim.add_argument("--config", required=True, help="INI config file path")
    sim.add_argument("--seed", type=int, default=None, help="master seed (overrides config)")
    sim.add_argument("--out", required=True, help="stats JSON output path")
    sim.add_argument(
        "--transcripts",
        action="store_true",
        help="also write per-session event logs next to the stats file",
    )
    sim.add_argument(
        "--metrics",
        metavar="PATH",
        help="also write the wall time, minor page faults, seconds per protocol phase and "
        "abort reasons as JSON to PATH",
    )
    sim.set_defaults(func=_cmd_simulate)

    sweep = sub.add_parser("attack-sweep", help="rerun a scenario across one parameter axis")
    sweep.add_argument("--config", required=True, help="INI config file path")
    sweep.add_argument("--axis", required=True, help=f"one of: {', '.join(SWEEP_AXES)}")
    sweep.add_argument("--values", required=True, help="comma separated axis values")
    sweep.add_argument("--out", required=True, help="CSV output path")
    sweep.set_defaults(func=_cmd_attack_sweep)

    scan = sub.add_parser("source-scan", help="exact source quality over an (r, phi) grid")
    scan.add_argument("--r", required=True, help="comma separated amplitude ratios")
    scan.add_argument("--phi", required=True, help="comma separated relative phases (radians)")
    scan.add_argument("--out", required=True, help="CSV output path")
    scan.set_defaults(func=_cmd_source_scan)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
