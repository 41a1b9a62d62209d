"""Benchmark of the hyperqsdc simulator through its real entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load shape: one process, closed loop, one client.  Each step is one
in-process ``hyperqsdc.cli.main(["simulate", ...])`` call on the workload's
generated INI file; the next call starts when the previous one returns.
Call k of a run uses master seed ``seed * 100000 + k``.

``--trace 0`` reports the end-to-end metrics: the median ``wall_s`` and
``pairs_per_s`` over the calls made in ``--seconds``, the median ``setup_s``
of several fresh interpreters that import the package and load the config,
and the ``peak_rss_mb`` of a fresh process that runs the workload once.
``--trace 1`` alternates untraced calls with calls that have span wrappers
installed on every layer, and reports per-layer calls, self and inclusive
seconds (raw medians per call) plus the tracing overhead.

Times are reported in reference seconds: raw seconds times ``CAL_REF_S``
over the time of a fixed calibration kernel (see ``calibrate``), for a call
the mean of the kernel runs right before and after it, for ``setup_s`` the
median kernel run between the probes.  On a shared machine the speed this
process gets drifts by tens of percent over minutes; the ratio cancels most
of that drift, and on a machine where the kernel takes ``CAL_REF_S`` it
equals plain seconds.  Raw medians are printed as ``info raw_wall_s`` and
``info raw_setup_s``.

Every call's stats document is gated for correctness outside the timed
region, the run's calls are pooled for the frequency gates, and one extra
fresh-process call at the run's first seed must reproduce the stats bytes.
The last stdout line is the result object; ``env`` and ``info`` lines before
it record the interpreter, numpy, thread caps, load, the INI of every
workload, sample counts and the failed-session fraction.  Outputs go to
``perfbench/_work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads as wls

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "_work"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_PROBES = 9  # fresh interpreters per run, after one discarded warm-up probe
PROBE_TIMEOUT_S = 120
CAL_STEPS = 4000
# Kernel seconds that make one reference second: about the kernel's time on a
# quiet 2-core x86-64 machine with Python 3.11 and numpy 2.4.
CAL_REF_S = 0.064

END_TO_END_UNITS = {"wall_s": "s", "pairs_per_s": "pairs/s", "setup_s": "s", "peak_rss_mb": "MB"}
DERIVED_UNITS = {
    "protocol.message_pair_ratio": "ratio",
    "channel.delivered_ratio": "ratio",
    "hyperstate.us_per_pair": "us",
    "harness.pool_s": "s",
    "harness.transcript_bytes": "bytes",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (no simulator sources, a probe died)."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_threads() -> None:
    """Cap BLAS/OpenMP pools at the core count; must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = str(nproc())


def load_cli():
    """Import ``hyperqsdc.cli`` from this checkout's sources, never from elsewhere."""
    if not (SRC / "hyperqsdc" / "__init__.py").is_file():
        raise BenchError(f"no simulator sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hyperqsdc.cli

    where = Path(hyperqsdc.cli.__file__).resolve().parent
    if where != (SRC / "hyperqsdc").resolve():
        raise BenchError(f"imported hyperqsdc from {where}, not from {SRC}")
    return hyperqsdc.cli


def layer_unit(name: str) -> str:
    if name in DERIVED_UNITS:
        return DERIVED_UNITS[name]
    return "count" if name.endswith(".calls") else "s"


def per_layer_names() -> list[str]:
    return list(tracing.Tracer().layer_metrics()) + list(DERIVED_UNITS)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def calibrate() -> float:
    """Seconds taken by the fixed calibration kernel.

    The kernel is shaped like the simulator's inner loop, a Python loop of
    single-DOF measurements with Born draws on a 16-amplitude numpy vector,
    so machine-speed drift slows both alike.  It never changes with the
    program: changing it rescales every reference-second figure.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    had = np.kron(np.eye(8), np.array([[1, 1], [1, -1]]) / np.sqrt(2)).astype(complex)
    odd = np.arange(16) % 2 == 1
    state = np.full(16, 0.25, dtype=complex)
    tally = {}
    started = time.perf_counter()
    for k in range(CAL_STEPS):
        work = had @ state
        p1 = float(np.sum(np.abs(work[odd]) ** 2))
        bit = 1 if rng.random() < p1 else 0
        work = work.copy()
        work[~odd if bit else odd] = 0.0
        state = had @ (work / np.linalg.norm(work))
        tally[k % 64] = tally.get(k % 64, 0) + bit
    return time.perf_counter() - started


def calibrated(step, seconds: float) -> tuple[list[float], list[float]]:
    """Run ``step`` back to back for ``seconds`` (at least once) between kernel runs.

    ``step`` returns its own raw seconds, or None to stop.  The calibration
    kernel runs before the first step and after each one.  Returns the raw
    step seconds and the kernel seconds (one more than steps).
    """
    raw, kernel = [], [calibrate()]
    started = time.perf_counter()
    while not raw or time.perf_counter() - started < seconds:
        took = step()
        if took is None:
            break
        raw.append(took)
        kernel.append(calibrate())
    return raw, kernel


def reference_seconds(raw: list[float], kernel: list[float]) -> list[float]:
    """``raw * CAL_REF_S / kernel``, with the mean kernel time on either side of each step."""
    return [r * 2 * CAL_REF_S / (kernel[i] + kernel[i + 1]) for i, r in enumerate(raw)]


class Run:
    """One benchmark run of one workload: its files, calls and gate failures."""

    def __init__(self, wl: wls.Workload, seed: int, workdir: Path):
        self.wl = wl
        self.seed = seed
        self.workdir = workdir
        self.ini_path = workdir / "workload.ini"
        self.ini_path.write_text(wl.ini(wls.call_seed(seed, 0)), encoding="utf-8")
        self.stats_path = workdir / "stats.json"
        self.reference_path = workdir / "reference.json"
        self.last_out = self.reference_path
        self.docs: list[dict] = []
        self.failures: list[str] = []
        self.calls = 0

    @property
    def attempted(self) -> int:
        return self.calls * self.wl.sessions

    def simulate_args(self, seed: int, out: Path) -> list[str]:
        args = ["--config", str(self.ini_path), "--seed", str(seed), "--out", str(out)]
        return args + (["--transcripts"] if self.wl.transcripts else [])

    def call(self, cli) -> float | None:
        """One ``simulate`` call; returns its wall time, or None if it failed.

        Call 0 writes the reference outputs that ``replay`` compares against.
        """
        out = self.reference_path if self.calls == 0 else self.stats_path
        self.last_out = out
        seed = wls.call_seed(self.seed, self.calls)
        self.calls += 1
        argv = ["simulate", *self.simulate_args(seed, out)]
        stderr = io.StringIO()
        started = time.perf_counter()
        try:
            with contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
        except Exception:  # any crash of the program is a failed call, reported below
            code = traceback.format_exc(limit=3)
        wall = time.perf_counter() - started
        if code != 0:
            self.failures.append(f"seed {seed}: simulate failed: {code} {stderr.getvalue().strip()}")
            return None
        doc = wls.load_doc(out)
        self.docs.append(doc)
        self.failures += [f"seed {seed}: {p}" for p in wls.check_call(self.wl, doc)]
        return wall

    def probe(self, *args: str) -> dict:
        # Bytecode caching stays on, as for an installed package, whatever the
        # caller's environment says, so setup_s does not depend on who runs it.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), *args],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=self.workdir, env=env,
        )
        if proc.returncode != 0:
            raise BenchError(f"probe {args[0]} exited {proc.returncode}: {proc.stderr.strip()}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def setup_seconds(self, repeats: int) -> tuple[list[float], list[float]]:
        """Raw setup seconds of ``repeats`` probes and the kernel seconds run before each."""
        self.probe("setup", str(self.ini_path))  # fills the bytecode cache, not counted
        raw, kernel = [], []
        for _ in range(repeats):
            kernel.append(calibrate())
            raw.append(self.probe("setup", str(self.ini_path))["setup_s"])
        return raw, kernel

    def replay(self) -> float:
        """Rerun call 0 in a fresh process; check byte-identical outputs, return its peak RSS."""
        replay_path = self.workdir / "replay.json"
        seed = wls.call_seed(self.seed, 0)
        try:
            got = self.probe("simulate", *self.simulate_args(seed, replay_path))
        except BenchError as e:
            self.failures.append(f"replay of seed {seed} crashed: {e}")
            return 0.0
        if got["exit_code"] != 0:
            self.failures.append(f"replay of seed {seed} exited {got['exit_code']}")
            return got["peak_rss_mb"]
        pairs = [(self.reference_path, replay_path)]
        if self.wl.transcripts:
            pairs.append(tuple(Path(f"{p}.transcripts.jsonl") for p in pairs[0]))
        for first, second in pairs:
            if not (first.is_file() and second.is_file() and first.read_bytes() == second.read_bytes()):
                self.failures.append(f"{second.name} differs from {first.name} for the same seed")
        return got["peak_rss_mb"]

    def gate_pooled(self) -> None:
        self.failures += wls.check_pooled(self.wl, self.docs)


def traced_call_metrics(run: Run, tracer: tracing.Tracer, wall: float) -> dict:
    wl = run.wl
    m = tracer.layer_metrics()
    transmits = m["channel.transmit.calls"]
    transcripts = Path(f"{run.last_out}.transcripts.jsonl")
    m["protocol.message_pair_ratio"] = tracer.counts["message_pairs"] / wl.pairs_emitted
    m["channel.delivered_ratio"] = tracer.counts["delivered"] / transmits if transmits else 0.0
    m["hyperstate.us_per_pair"] = 1e6 * sum(
        v for k, v in m.items() if k.startswith("hyperstate.") and k.endswith(".self_s")
    ) / wl.pairs_emitted
    m["harness.pool_s"] = m["harness.run.self_s"]
    m["harness.transcript_bytes"] = transcripts.stat().st_size if transcripts.exists() else 0
    m["trace.wall_s"] = wall
    return m


def measure(wl: wls.Workload, seed: int, seconds: float, trace: bool,
            setup_repeats: int = SETUP_PROBES) -> dict:
    """Run one workload; returns the result object plus the record kept in ``_work``."""
    caps = {var: os.environ.get(var) for var in THREAD_VARS}
    load_start = os.getloadavg()
    cli = load_cli()
    import numpy

    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"run-{os.getpid()}-{wl.name}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        run = Run(wl, seed, workdir)
        if not trace:
            setup, setup_kernel = run.setup_seconds(setup_repeats)
            raw, kernel = calibrated(lambda: run.call(cli), seconds)
            walls = reference_seconds(raw, kernel)
            metrics = {
                "wall_s": _median(walls),
                "pairs_per_s": _median([wl.pairs_emitted / w for w in walls]),
                # One probe's import time does not track the kernel run next to it,
                # but a run's median does track the run's median kernel time.
                "setup_s": _median(setup) * CAL_REF_S / _median(setup_kernel),
                "peak_rss_mb": run.replay(),
            }
            info = {
                "samples": {"wall_s": len(walls), "setup_s": len(setup), "peak_rss_mb": 1},
                "raw_wall_s": _median(raw),
                "raw_setup_s": _median(setup),
                "calls": {"raw_s": raw, "kernel_s": kernel},
            }
        else:
            # Untraced and traced calls alternate, so both see the same machine.
            tracer = tracing.Tracer()
            untraced, per_call = [], []
            started = time.perf_counter()
            while not per_call or time.perf_counter() - started < seconds:
                wall = run.call(cli)
                if wall is None:
                    break
                untraced.append(wall)
                tracer.reset()
                with tracer:
                    wall = run.call(cli)
                if wall is None:
                    break
                per_call.append(traced_call_metrics(run, tracer, wall))
            tracer.write_spans(WORK / f"spans-{wl.name}.jsonl")
            metrics = {name: _median([c[name] for c in per_call]) for name in per_layer_names()
                       if name != "trace.overhead_s"}
            metrics["trace.overhead_s"] = metrics["trace.wall_s"] - _median(untraced)
            run.replay()
            info = {
                "samples": {"untraced": len(untraced), "traced": len(per_call)},
                "absent_layers": tracer.absent,
                "unreadable_counters": sorted(tracer.unreadable),
                "per_call": per_call,
            }
        run.gate_pooled()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = END_TO_END_UNITS if not trace else {n: layer_unit(n) for n in metrics}
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.attempted if run.failures else 0,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": nproc(),
        "thread_caps": caps,
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "workload": wl.name,
        "workload_seed": seed,
        "call_seeds": [wls.call_seed(seed, 0), wls.call_seed(seed, max(run.calls - 1, 0))],
        "ini": {name: w.ini(wls.call_seed(seed, 0)) for name, w in wls.WORKLOADS.items()},
    }
    return {"result": result, "env": env, "info": info, "failures": run.failures}


def emit(record: dict) -> None:
    """Print the environment, notes and gate failures, then the result as the last line."""
    result = record["result"]
    print("env " + json.dumps(record["env"]))
    for key, value in record["info"].items():
        if value and key not in ("per_call", "calls"):
            print(f"info {key} " + json.dumps(value))
    failed_frac = result["failed"] / result["attempted"]
    print("info failed_frac " + json.dumps({"value": failed_frac, "unit": "ratio",
                                            "sessions": result["attempted"]}))
    for failure in record["failures"]:
        print(f"gate {failure}")
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hyperqsdc benchmark (see module docstring)")
    parser.add_argument("--workload", required=True, choices=sorted(wls.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    cap_threads()
    try:
        record = measure(wls.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except (BenchError, ImportError, OSError, subprocess.TimeoutExpired) as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (WORK / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    emit(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
