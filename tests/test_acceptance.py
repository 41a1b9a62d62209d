"""Acceptance suite: one test per required property, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines alongside the pytest verdicts.  Every tolerance and runtime
budget is asserted, not just reported.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager

import numpy as np

from hyperqsdc.adversary import (
    DEFAULT_FILTER_TOLERANCE,
    SCREEN_ALARMED,
    SCREEN_FILTERED,
    DefenseConfig,
    EveKind,
    PnsKind,
    draw_probes,
    screen,
)
from hyperqsdc.harness import parse_run_config, run, stats_text
from hyperqsdc.hyperstate import (
    BELL_BASIS,
    EncodingOp,
    SourceParams,
    bell_labels_table,
    encode,
    source_fidelity,
)

from oracles import source_fidelity_formula


@contextmanager
def criterion(number: int, title: str, budget_s: float):
    """Assert the body and the runtime budget; print one verdict line."""
    started = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - started
        assert elapsed < budget_s, f"criterion {number} took {elapsed:.1f}s, budget {budget_s}s"
    except BaseException:
        print(f"criterion {number} ({title}): FAIL", flush=True)
        raise
    print(f"criterion {number} ({title}): PASS [{elapsed:.2f}s]", flush=True)


BASE_CONFIG = """
[run]
sessions = {sessions}
seed = {seed}
[protocol]
n_pairs = {n_pairs}
sample_fraction_first = {f1}
sample_fraction_second = {f2}
error_threshold = {threshold}
{extra}
"""


def make_config(seed, sessions=100, n_pairs=112, f1=0.05, f2=0.05, threshold=0.05, extra=""):
    return parse_run_config(
        BASE_CONFIG.format(
            sessions=sessions, seed=seed, n_pairs=n_pairs, f1=f1, f2=f2, threshold=threshold,
            extra=extra,
        )
    )


def test_criterion_1_bell_basis_exactness():
    with criterion(1, "hyper-Bell basis Gram matrix is the identity", 1.0):
        gram = BELL_BASIS @ BELL_BASIS.conj().T
        assert np.max(np.abs(gram - np.eye(16))) <= 1e-12


def test_criterion_2_dense_coding_bijection():
    with criterion(2, "16 encodings map to 16 Bell labels, recovered with prob 1", 1.0):
        ops = [EncodingOp(i, j) for i in range(1, 5) for j in range(1, 5)]
        encoded = encode(np.tile(BELL_BASIS[0], (16, 1)), np.array([op.code for op in ops]))
        probs = np.abs(encoded @ BELL_BASIS.conj().T) ** 2  # row k: each label's probability
        rng = np.random.default_rng(2)
        labels = bell_labels_table(encoded, np.arange(16), rng.random(16))
        for op, row, label in zip(ops, probs, labels.tolist()):
            assert abs(row[label] - 1.0) <= 1e-12  # recovery prob is 1
            assert EncodingOp.from_code(label) == op  # Bob's decoding table
        assert len(set(labels.tolist())) == 16


def test_criterion_3_ideal_end_to_end():
    with criterion(3, "100 clean sessions deliver 400-bit messages at 2 bits/transit", 10.0):
        stats = run(make_config(2026, sessions=100))
        assert stats.accepted == 100 and stats.aborted == 0
        assert stats.message_bits_delivered == 100 * 400
        assert stats.message_bits_wrong == 0
        assert stats.bits_per_photon_transit == 2.0  # exact, not approximate


# one huge block turns the first check into a 1e5-sample frequency estimate
_BIG = dict(sessions=1, n_pairs=100004, f1=0.99997, f2=0.00001, threshold=1.0)


def test_criterion_4_intercept_resend_detection():
    with criterion(4, "intercept-resend hit rates: 7/16 both DOFs, 1/4 one DOF", 30.0):
        both = make_config(41, **_BIG,
                           extra="[adversary]\nkind = intercept_resend\npasses = forward\n")
        stats = run(both)
        rates = stats.first_check.rates()
        assert rates["n_checked"] >= 100000
        assert math.isclose(rates["detection_rate"], 7 / 16, abs_tol=0.005)

        one = make_config(
            43,
            **_BIG,
            extra="[adversary]\nkind = intercept_resend\ndofs = pol\npasses = forward\n",
        )
        stats = run(one)
        rates = stats.first_check.rates()
        assert rates["n_checked"] >= 100000
        assert math.isclose(rates["error_rate_pol"], 1 / 4, abs_tol=0.005)
        assert rates["error_rate_spa"] == 0.0  # untouched DOF stays silent


def test_criterion_5_source_model():
    with criterion(5, "source fidelity closed form matches overlap on 9x17 grid", 1.0):
        r_grid = np.arange(0.0, 2.01, 0.25)
        phi_grid = np.linspace(0.0, 2.0 * np.pi, 17)
        assert len(r_grid) == 9 and len(phi_grid) == 17
        for r in r_grid:
            for phi in phi_grid:
                params = SourceParams(float(r), float(phi))
                brute = source_fidelity(params)  # overlap with the ideal state
                assert abs(brute - source_fidelity_formula(r, phi)) <= 1e-12
        assert abs(source_fidelity(SourceParams(1.0, 0.0)) - 1.0) <= 1e-12
        assert abs(source_fidelity(SourceParams(1.0, np.pi))) <= 1e-12


def test_criterion_6_channel_calibration():
    with criterion(6, "pauli_p 0.06 per DOF shows up as 0.04 check error", 30.0):
        rc = make_config(61, **_BIG, extra="[channel]\npauli_p_pol = 0.06\npauli_p_spa = 0.06\n")
        stats = run(rc)
        rates = stats.first_check.rates()
        assert rates["n_checked"] >= 100000
        assert math.isclose(rates["error_rate_pol"], 0.04, abs_tol=0.004)
        assert math.isclose(rates["error_rate_spa"], 0.04, abs_tol=0.004)


def test_criterion_7_trojan_defenses():
    with criterion(7, "trojan probes: splitter 1/2, ideal PNS 1, filter 1, silent checks", 30.0):
        rng = np.random.default_rng(7)

        def draw(rows):  # one uniform per splitter reading
            return rng.random(len(rows))

        splitter = DefenseConfig(pns_enabled=True, pns_kind=PnsKind.BEAMSPLITTER_5050)
        alarms = np.count_nonzero(screen(np.zeros(100000), np.full(100000, 2), splitter, draw)
                                  == SCREEN_ALARMED)
        assert math.isclose(alarms / 100000, 0.5, abs_tol=0.005)

        ideal = DefenseConfig(pns_enabled=True, pns_kind=PnsKind.IDEAL)
        assert (screen(np.zeros(10000), np.full(10000, 2), ideal, draw) == SCREEN_ALARMED).all()

        filtering = DefenseConfig(filter_enabled=True)
        probes = draw_probes(EveKind.TROJAN_INVISIBLE, 10000, rng.random, DEFAULT_FILTER_TOLERANCE)
        assert (screen(probes, np.full(10000, 2), filtering, draw) == SCREEN_FILTERED).all()

        # with defenses off the probes ride along without touching the quantum state
        for kind in ("trojan_multiphoton", "trojan_invisible", "trojan_delay"):
            rc = make_config(71, sessions=25,
                             extra=f"[adversary]\nkind = {kind}\npasses = forward\n")
            stats = run(rc)
            assert stats.trojan_signals == 25 * 112
            assert stats.accepted == 25
            first, second = stats.first_check, stats.second_check
            assert first.n_mismatched == 0 and first.n_pol_errors == 0 and first.n_spa_errors == 0
            assert second.n_mismatched == 0 and second.n_pol_errors == 0 and second.n_spa_errors == 0
            assert stats.message_bits_wrong == 0


def test_criterion_8_determinism(tmp_path):
    with criterion(8, "identical config and seed give byte-identical stats files", 10.0):
        # noisy lossy attacked run with defenses on, so every RNG path is live
        rc = make_config(
            88,
            sessions=25,
            threshold=1.0,
            extra=(
                "[channel]\nloss_prob = 0.1\npauli_p_pol = 0.03\npauli_p_spa = 0.03\n"
                "[adversary]\nkind = intercept_resend\n"
                "[defense]\nfilter_enabled = true\npns_enabled = true\n"
            ),
        )
        paths = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            path.write_text(stats_text(rc, run(rc)))
            paths.append(path)
        first, second = (p.read_bytes() for p in paths)
        assert first == second
        assert b"wall_time" not in first
