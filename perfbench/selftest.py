"""Self-test of the benchmark at toy sizes.

    python3 perfbench/selftest.py

Checks that every metric ``BENCHMARK.json`` names is printed with its unit
for every workload, that traced self times never add up to more than the
traced wall time, that each correctness gate trips on a deliberately wrong
statistic, that a missing layer is reported rather than fatal, and that the
benchmark refuses to run without the simulator sources.  Exits nonzero and
lists the problems if any check fails.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys

import run as bench
import tracing
import workloads as wls

SEED = 3


def check_metrics_printed(spec: dict, problems: list) -> None:
    if sorted(w["name"] for w in spec["workloads"]) != sorted(wls.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for wl in wls.WORKLOADS.values():
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            record = bench.measure(wls.toy(wl), SEED, 0.3, trace, setup_repeats=2)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                bench.emit(record)
            printed = json.loads(out.getvalue().splitlines()[-1])
            where = f"{wl.name} trace={int(trace)}"
            if set(printed) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(printed)}")
            if not printed["correct"] or printed["failed"]:
                problems.append(f"{where}: toy run failed its gates: {record['failures']}")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in printed["metrics"].items()}
            if got != want:
                problems.append(f"{where}: printed metrics/units differ from BENCHMARK.json "
                                f"(missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))})")
            for call in record["info"].get("per_call", []):
                self_total = sum(v for k, v in call.items() if k.endswith(".self_s"))
                if self_total > call["trace.wall_s"]:
                    problems.append(f"{where}: self times {self_total} exceed traced wall {call['trace.wall_s']}")


def _corrupt(doc: dict, path: tuple, value) -> dict:
    bad = copy.deepcopy(doc)
    node = bad
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return bad


def check_gates_trip(problems: list) -> None:
    cli = bench.load_cli()
    workdir = bench.WORK / "selftest-gates"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        for wl in wls.WORKLOADS.values():
            small = wls.toy(wl)
            run = bench.Run(small, SEED, workdir)
            for _ in range(7 if small.gate == "hostile" else 2):
                run.call(cli)
            run.replay()
            run.gate_pooled()
            if run.failures:
                problems.append(f"{wl.name}: honest toy run failed: {run.failures}")
            doc = run.docs[0]
            wrong_call = [_corrupt(doc, ("results", "wall_time"), 1.0)]
            wrong_pool = []
            if small.gate == "clean":
                wrong_call += [
                    _corrupt(doc, ("results", "bits_per_photon_transit"), 1.9375),
                    _corrupt(doc, ("results", "message_bit_error_rate"), 0.0025),
                    _corrupt(doc, ("results", "accepted"), small.sessions - 1),
                ]
            elif small.gate == "hostile":
                wrong_call.append(_corrupt(doc, ("results", "aborted"), doc["results"]["aborted"] + 1))
                wrong_pool += [
                    [_corrupt(d, ("results", "losses", "forward"), 2 * d["results"]["losses"]["forward"])
                     for d in run.docs],
                    [_corrupt(d, ("results", "first_check", "error_rate_pol"), 0.5) for d in run.docs],
                    [_corrupt(d, ("results", "first_check", "error_rate_spa"), 0.0) for d in run.docs],
                ]
            else:
                wrong_pool.append([_corrupt(d, ("results", "first_check", "detection_rate"), 0.30)
                                   for d in run.docs])
            for bad in wrong_call:
                if not wls.check_call(small, bad):
                    problems.append(f"{wl.name}: call gate passed a wrong document")
            for bad_docs in wrong_pool:
                if not wls.check_pooled(small, bad_docs):
                    problems.append(f"{wl.name}: pooled gate passed wrong statistics")
            run.reference_path.write_bytes(run.reference_path.read_bytes().replace(b'"sessions"', b'"Sessions"', 1))
            before = len(run.failures)
            run.replay()
            if len(run.failures) == before:
                problems.append(f"{wl.name}: determinism check passed differing stats bytes")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_oracle(problems: list) -> None:
    for p in (0.0, 0.03, 0.3):
        got = wls.intercept_pauli_check_error(p)
        if abs(got - (0.25 + p / 3)) > 1e-12:
            problems.append(f"intercept+Pauli oracle {got} != 1/4 + p/3 at p={p}")


def check_absent_layer(problems: list) -> None:
    import hyperqsdc.protocol

    original = hyperqsdc.protocol.measure_photon
    tracer = tracing.Tracer(tracing.TARGETS + (("channel", "no_such_function", False),))
    with tracer:
        if hyperqsdc.protocol.measure_photon is original:
            problems.append("tracer did not wrap hyperstate.measure_photon where protocol imported it")
    if tracer.absent != ["channel.no_such_function"]:
        problems.append(f"absent layers reported as {tracer.absent}")
    if hyperqsdc.protocol.measure_photon is not original:
        problems.append("tracer left a wrapper installed")


def check_refuses_without_sources(problems: list) -> None:
    bare = bench.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(bench.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns(bench.WORK.name, "__pycache__"))
        shutil.copy(bench.HERE.parent / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "tiny_blocks", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append(f"run without sources exited {proc.returncode} printing {proc.stdout!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    bench.cap_threads()
    spec = json.loads((bench.HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems: list[str] = []
    check_oracle(problems)
    check_refuses_without_sources(problems)
    check_metrics_printed(spec, problems)
    check_gates_trip(problems)
    check_absent_layer(problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
