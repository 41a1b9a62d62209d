"""Tests for eavesdropping strategies and receiver defenses.

Frozen rates (1/4 per-DOF check error, 7/16 both-DOF detection, 1/2 Bell
mismatch on the return pass, 9/64 two-pass guess accuracy) were computed
with the exact branch enumerations in oracles.py.
"""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest

import oracles
from hyperqsdc.adversary import (
    DEFAULT_FILTER_TOLERANCE,
    SCREENS,
    TROJAN_KINDS,
    BasisPolicy,
    DefenseConfig,
    DefenseVerdict,
    EveKind,
    EveStrategy,
    PnsKind,
    draw_probes,
    guess_encoding_ops,
    resend,
    screen,
)
from hyperqsdc.hyperstate import (
    ALL_AXES,
    BELL_BASIS,
    Dof,
    EncodingOp,
    bell_labels_table,
    encode,
    measure_table,
)

# frozen oracle outputs
IR_CHECK_ERROR = 0.25
IR_BOTH_DOF_DETECTION = 7.0 / 16.0
IR_BELL_MISMATCH = 0.5
TWO_PASS_GUESS_ACCURACY = (3.0 / 8.0) ** 2


def test_frozen_values_match_oracles():
    assert abs(oracles.intercept_resend_first_check_error() - IR_CHECK_ERROR) <= 1e-12
    e = oracles.intercept_resend_first_check_error()
    assert abs((1 - (1 - e) ** 2) - IR_BOTH_DOF_DETECTION) <= 1e-12
    assert abs(oracles.intercept_resend_second_check_mismatch() - IR_BELL_MISMATCH) <= 1e-12
    assert abs(oracles.eve_two_pass_guess_accuracy() ** 2 - TWO_PASS_GUESS_ACCURACY) <= 1e-12


def check_block(states, rng):
    """One correlation-check draw per row: both photons of a DOF in one random basis.

    Returns per row the pol error, the spa error and the X-basis mask (pol, spa).
    """
    n = len(states)
    x = rng.random((n, 2)) < 0.5
    outcomes, _ = measure_table(states, np.arange(n), ALL_AXES, rng.random(n), x[:, [0, 0, 1, 1]],
                                collapse=False)
    bits = (outcomes[:, None] >> np.array([3, 2, 1, 0])) & 1  # (a_pol, b_pol, a_spa, b_spa)
    return bits[:, 0] != bits[:, 1], bits[:, 2] != bits[:, 3], x


def intercept(states, strategy, rng):
    """One intercept-resend pass over every row: the resent block and Eve's record codes.

    Eve's draws are those of one transit chunk: a basis uniform per row and
    measured DOF under the uniform policy, then one outcome uniform per row.
    """
    n, shape = len(states), (len(states), len(strategy.dof_mask))
    x = np.full(shape, strategy.basis_policy is BasisPolicy.FIXED_X)
    if strategy.basis_policy is BasisPolicy.UNIFORM_ZX:
        x = rng.random(shape) < 0.5
    table, index, codes = resend(states, strategy, x, rng.random(n), np.arange(n))
    return table[index], codes


def intercepted_ideal_pairs(n, strategy, rng):
    """n ideal pairs after one intercept-resend pass, and Eve's record codes."""
    return intercept(np.tile(BELL_BASIS[0], (n, 1)), strategy, rng)


class TestInterceptResend:
    def test_both_dof_error_rates_and_detection(self):
        # one block of intercepted ideal pairs, then one correlation-check draw per pair
        strategy = EveStrategy(kind=EveKind.INTERCEPT_RESEND)
        rng = np.random.default_rng(21)
        n = 40_000
        states, _ = intercepted_ideal_pairs(n, strategy, rng)
        e_pol, e_spa, _ = check_block(states, rng)
        band = 4.0 / math.sqrt(n)
        assert abs(np.count_nonzero(e_pol) / n - IR_CHECK_ERROR) < band
        assert abs(np.count_nonzero(e_spa) / n - IR_CHECK_ERROR) < band
        assert abs(np.count_nonzero(e_pol | e_spa) / n - IR_BOTH_DOF_DETECTION) < band

    @pytest.mark.parametrize("attacked,clean", [(Dof.POL, Dof.SPA), (Dof.SPA, Dof.POL)])
    def test_single_dof_attack_leaves_other_dof_silent(self, attacked, clean):
        strategy = EveStrategy(EveKind.INTERCEPT_RESEND, frozenset({attacked}))
        rng = np.random.default_rng(22)
        n = 20_000
        states, _ = intercepted_ideal_pairs(n, strategy, rng)
        e_pol, e_spa, _ = check_block(states, rng)
        errs = {Dof.POL: np.count_nonzero(e_pol), Dof.SPA: np.count_nonzero(e_spa)}
        assert errs[clean] == 0
        assert abs(errs[attacked] / n - IR_CHECK_ERROR) < 4.0 / math.sqrt(n)

    def test_fixed_z_policy_only_errs_in_x_checks(self):
        strategy = EveStrategy(
            EveKind.INTERCEPT_RESEND, frozenset({Dof.POL}), BasisPolicy.FIXED_Z
        )
        rng = np.random.default_rng(23)
        states, _ = intercepted_ideal_pairs(20_000, strategy, rng)
        e_pol, _, x = check_block(states, rng)
        x_pol = x[:, 0]
        assert not e_pol[~x_pol].any()  # Z-basis checks never err
        x_checked = np.count_nonzero(x_pol)
        x_err = np.count_nonzero(e_pol[x_pol])
        assert abs(x_err / x_checked - 0.5) < 4.0 / math.sqrt(x_checked)

    def test_bell_mismatch_on_encoded_pair(self):
        # the return-pass situation: the pair carries an encoded Bell state
        strategy = EveStrategy(EveKind.INTERCEPT_RESEND, frozenset({Dof.POL}))
        rng = np.random.default_rng(24)
        n = 20_000
        op = EncodingOp(3, 2)  # takes the ideal pair to the label of its code
        encoded = encode(np.tile(BELL_BASIS[0], (n, 1)), np.full(n, op.code))
        states, _ = intercept(encoded, strategy, rng)
        labels = bell_labels_table(states, np.arange(n), rng.random(n))
        assert (labels % 4 == op.code % 4).all()  # spatial DOF untouched
        mismatch = np.count_nonzero(labels // 4 != op.code // 4)
        assert abs(mismatch / n - IR_BELL_MISMATCH) < 4.0 / math.sqrt(n)

    def test_record_covers_only_masked_dofs(self):
        rng = np.random.default_rng(25)
        strategy = EveStrategy(EveKind.INTERCEPT_RESEND, frozenset({Dof.SPA}))
        _, codes = intercepted_ideal_pairs(1, strategy, rng)
        (pol_basis, pol_outcome), (spa_basis, spa_outcome) = codes[0].tolist()
        assert pol_basis == pol_outcome == -1
        assert spa_basis in (0, 1)  # Z or X
        assert spa_outcome in (0, 1)

    def test_rejects_unknown_dof_and_freezes_the_mask(self):
        with pytest.raises(ValueError, match="unknown DOF"):
            EveStrategy(EveKind.INTERCEPT_RESEND, frozenset({Dof.POL, "time"}))
        strategy = EveStrategy(EveKind.INTERCEPT_RESEND, {Dof.SPA})
        assert strategy.dof_mask == frozenset({Dof.SPA})
        assert isinstance(strategy.dof_mask, frozenset)

    def test_rejects_wrong_kind_and_empty_mask(self):
        with pytest.raises(ValueError):
            EveStrategy(EveKind.INTERCEPT_RESEND, frozenset())
        with pytest.raises(ValueError):
            intercepted_ideal_pairs(1, EveStrategy(EveKind.NONE), np.random.default_rng(0))


class TestGuessing:
    def test_two_pass_guess_accuracy(self):
        # Eve taps both passes of n pairs, Alice applies a uniform op in between
        strategy = EveStrategy(kind=EveKind.INTERCEPT_RESEND)
        rng = np.random.default_rng(26)
        n = 20_000
        states, fwd = intercepted_ideal_pairs(n, strategy, rng)
        ops = rng.integers(16, size=n)
        _, back = intercept(encode(states, ops), strategy, rng)
        guesses = guess_encoding_ops(fwd, back, rng.random((n, 2, 2)))
        correct = np.count_nonzero(guesses == ops)
        assert abs(correct / n - TWO_PASS_GUESS_ACCURACY) < 4.0 / math.sqrt(n)

    def test_blind_guess_is_uniform_chance(self):
        # Eve saw neither pass: every record code is -1
        rng = np.random.default_rng(27)
        n = 20_000
        unseen = np.full((n, 2, 2), -1, dtype=np.int8)
        guesses = guess_encoding_ops(unseen, unseen, rng.random((n, 2, 2)))
        correct = np.count_nonzero(guesses == EncodingOp(2, 3).code)
        assert abs(correct / n - 1.0 / 16.0) < 4.0 / math.sqrt(n)


def no_draws(shape):
    raise AssertionError(f"drew {shape} uniforms")


def verdicts(codes) -> list:
    return [SCREENS[code] for code in codes]


class TestTrojans:
    def test_multiphoton_meta(self):
        # an on-band probe draws nothing
        offsets = draw_probes(EveKind.TROJAN_MULTIPHOTON, 3, no_draws, DEFAULT_FILTER_TOLERANCE)
        assert offsets.tolist() == [0.0, 0.0, 0.0]

    def test_invisible_sits_outside_filter_window(self):
        rng = np.random.default_rng(29)
        tol = 0.02
        offsets = draw_probes(EveKind.TROJAN_INVISIBLE, 500, rng.random, tol)
        assert (np.abs(offsets) > tol).all()
        assert set((offsets > 0).tolist()) == {True, False}

    def test_invisible_clears_filter_edge_when_random_returns_zero(self):
        tol = 0.02
        offsets = draw_probes(EveKind.TROJAN_INVISIBLE, 1, np.zeros, tol)
        assert abs(offsets[0]) > tol
        cfg = DefenseConfig(filter_enabled=True, filter_tolerance=tol)
        assert verdicts(screen(offsets, np.array([2]), cfg, no_draws)) == [
            DefenseVerdict.FILTERED_OUT]

    @pytest.mark.parametrize("tol", [0.02, 0.05, 0.4, 5e-324])
    def test_invisible_clears_filter_edge_at_the_largest_uniform(self, tol):
        # 2.0 - (1 - 2**-53) rounds to 1.0, which would put the probe on the edge
        edge = np.array([[1 - 2**-53, 0.9]])
        offsets = draw_probes(EveKind.TROJAN_INVISIBLE, 1, lambda shape: edge, tol)
        assert -offsets[0] > tol  # the sign uniform 0.9 makes it negative
        cfg = DefenseConfig(filter_enabled=True, filter_tolerance=tol)
        assert verdicts(screen(offsets, np.array([2]), cfg, no_draws)) == [
            DefenseVerdict.FILTERED_OUT]

    def test_invisible_draws_magnitude_then_sign_per_signal(self):
        tol = 0.02
        offsets = draw_probes(EveKind.TROJAN_INVISIBLE, 100, np.random.default_rng(41).random, tol)
        u = np.random.default_rng(41).random(200)
        magnitude, sign = u[0::2], u[1::2]
        expected = np.where(sign < 0.5, 1.0, -1.0) * (tol * (2.0 - magnitude))
        assert offsets.tobytes() == expected.tobytes()

    def test_delay_meta(self):
        # a delayed probe is on band too, and draws nothing
        offsets = draw_probes(EveKind.TROJAN_DELAY, 3, no_draws, DEFAULT_FILTER_TOLERANCE)
        assert offsets.tolist() == [0.0, 0.0, 0.0]


class TestBatchEqualsScalarCalls:
    # the engine draws and screens a transit's probes as arrays; its bytes
    # depend on these equalling the per-signal rules of oracles.py, one
    # scalar draw at a time, generator state included

    @pytest.mark.parametrize("kind", sorted(TROJAN_KINDS, key=lambda kind: kind.value))
    @pytest.mark.parametrize("tol", [0.001, 0.03, DEFAULT_FILTER_TOLERANCE, 0.4])
    def test_draw_probes(self, kind, tol):
        for n in range(51):
            batch, scalar = np.random.default_rng([38, n]), np.random.default_rng([38, n])
            offsets = draw_probes(kind, n, batch.random, tol)
            expected = [oracles.probe_offset(kind is EveKind.TROJAN_INVISIBLE, tol, scalar.random)
                        for _ in range(n)]
            assert offsets.shape == (n,)
            assert offsets.tobytes() == np.array(expected, dtype=float).tobytes()
            assert batch.bit_generator.state == scalar.bit_generator.state

    @pytest.mark.parametrize("kind", [EveKind.NONE, EveKind.INTERCEPT_RESEND])
    def test_draw_probes_rejects_non_trojan_kind(self, kind):
        with pytest.raises(ValueError):
            draw_probes(kind, 3, np.random.default_rng(0).random, DEFAULT_FILTER_TOLERANCE)

    @pytest.mark.parametrize("filter_enabled", [False, True])
    @pytest.mark.parametrize("pns_kind", [None, PnsKind.IDEAL, PnsKind.BEAMSPLITTER_5050])
    def test_screen(self, filter_enabled, pns_kind):
        tol = 0.03
        cfg = DefenseConfig(filter_enabled=filter_enabled, filter_tolerance=tol,
                            pns_enabled=pns_kind is not None, pns_kind=pns_kind or PnsKind.IDEAL)
        signals = np.random.default_rng(39)
        for n in range(51):
            # offsets inside, on the edge of and outside the window; 1 to 3 photons
            offsets = signals.choice([0.0, tol, -tol, 0.01, -0.05, 0.06], size=n)
            photons = signals.integers(1, 4, size=n)
            batch, scalar = np.random.default_rng([40, n]), np.random.default_rng([40, n])
            codes = screen(offsets, photons, cfg, lambda rows: batch.random(len(rows)))
            expected = oracles.screen_signals(offsets.tolist(), photons.tolist(),
                                              tol if filter_enabled else None,
                                              pns_kind and pns_kind.value, scalar.random)
            assert codes.shape == (n,)
            assert [verdict.value for verdict in verdicts(codes)] == expected
            assert batch.bit_generator.state == scalar.bit_generator.state
            # the 50/50 splitter draws one uniform per unfiltered multi-photon signal
            passed = ~(filter_enabled & (np.abs(offsets) > tol))
            drawn = np.count_nonzero(passed & (photons >= 2))
            reference = np.random.default_rng([40, n])
            reference.random(drawn if pns_kind is PnsKind.BEAMSPLITTER_5050 else 0)
            assert batch.bit_generator.state == reference.bit_generator.state


class TestDefenses:
    def test_legitimate_signal_never_trips(self):
        # one on-band photon per signal
        cfg = DefenseConfig(filter_enabled=True, pns_enabled=True, pns_kind=PnsKind.IDEAL)
        codes = screen(np.zeros(100), np.ones(100, dtype=int), cfg, no_draws)
        assert set(verdicts(codes)) == {DefenseVerdict.CLEAN}

    def test_filter_removes_offband_probe_always(self):
        rng = np.random.default_rng(32)
        cfg = DefenseConfig(filter_enabled=True, filter_tolerance=DEFAULT_FILTER_TOLERANCE)
        offsets = draw_probes(EveKind.TROJAN_INVISIBLE, 2000, rng.random, DEFAULT_FILTER_TOLERANCE)
        codes = screen(offsets, np.full(2000, 2), cfg, no_draws)
        assert set(verdicts(codes)) == {DefenseVerdict.FILTERED_OUT}

    def test_ideal_pns_always_alarms_on_two_photons(self):
        cfg = DefenseConfig(pns_enabled=True, pns_kind=PnsKind.IDEAL)
        offsets = draw_probes(EveKind.TROJAN_MULTIPHOTON, 2000, no_draws, DEFAULT_FILTER_TOLERANCE)
        codes = screen(offsets, np.full(2000, 2), cfg, no_draws)
        assert set(verdicts(codes)) == {DefenseVerdict.PNS_ALARM}

    @pytest.mark.parametrize("count,expected", [(2, 0.5), (3, 0.75)])
    def test_beamsplitter_alarm_frequency(self, count, expected):
        # all n photons exit one port with probability 2**(1-n)
        rng = np.random.default_rng(34)
        cfg = DefenseConfig(pns_enabled=True, pns_kind=PnsKind.BEAMSPLITTER_5050)
        n = 40_000
        codes = screen(np.zeros(n), np.full(n, count), cfg, lambda rows: rng.random(len(rows)))
        alarms = verdicts(codes).count(DefenseVerdict.PNS_ALARM)
        assert abs(alarms / n - expected) < 4.0 / math.sqrt(n)

    def test_disabled_defenses_see_nothing(self):
        rng = np.random.default_rng(35)
        cfg = DefenseConfig()
        for kind in (EveKind.TROJAN_MULTIPHOTON, EveKind.TROJAN_INVISIBLE, EveKind.TROJAN_DELAY):
            offsets = draw_probes(kind, 100, rng.random, DEFAULT_FILTER_TOLERANCE)
            codes = screen(offsets, np.full(100, 2), cfg, no_draws)
            assert set(verdicts(codes)) == {DefenseVerdict.CLEAN}

    def test_enabling_filter_never_lowers_caught_fraction(self):
        # 3000 probes of the three kinds, in a random order
        rng = np.random.default_rng(36)
        kinds = (EveKind.TROJAN_MULTIPHOTON, EveKind.TROJAN_INVISIBLE, EveKind.TROJAN_DELAY)
        picks = rng.integers(3, size=3000)
        offsets = np.zeros(3000)
        for k, kind in enumerate(kinds):
            offsets[picks == k] = draw_probes(kind, np.count_nonzero(picks == k), rng.random,
                                              DEFAULT_FILTER_TOLERANCE)
        for pns_enabled in (False, True):
            caught = {}
            for filter_enabled in (False, True):
                cfg = DefenseConfig(
                    filter_enabled=filter_enabled,
                    pns_enabled=pns_enabled,
                    pns_kind=PnsKind.IDEAL,
                )
                codes = screen(offsets, np.full(3000, 2), cfg, no_draws)
                caught[filter_enabled] = len(codes) - verdicts(codes).count(DefenseVerdict.CLEAN)
            assert caught[True] >= caught[False]
            assert caught[True] > 0

    def test_rejects_nonpositive_tolerance(self):
        # an infinite tolerance would also reach the stats file as invalid JSON, and one
        # above DBL_MAX / 2 would put an invisible probe's 2 * tolerance out of range
        for bad in (0.0, -0.05, math.inf, math.nan, 1e308, sys.float_info.max):
            with pytest.raises(ValueError, match="filter_tolerance"):
                DefenseConfig(filter_tolerance=bad)
