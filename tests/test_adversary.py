"""Tests for eavesdropping strategies and receiver defenses.

Frozen rates (1/4 per-DOF check error, 7/16 both-DOF detection, 1/2 Bell
mismatch on the return pass, 9/64 two-pass guess accuracy) were computed
with the exact branch enumerations in oracles.py.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import oracles
from hyperqsdc.adversary import (
    DEFAULT_FILTER_TOLERANCE,
    BasisPolicy,
    DefenseConfig,
    DefenseVerdict,
    EveKind,
    EveRecord,
    EveStrategy,
    PnsKind,
    SignalMeta,
    apply_defenses,
    craft_trojan,
    guess_encoding_op,
    guess_encoding_ops,
    intercept_block,
    intercept_resend,
)
from hyperqsdc.hyperstate import (
    ALL_AXES,
    BELL_BASIS,
    Basis,
    Bell,
    BellIndex,
    Dof,
    EncodingOp,
    apply_encoding,
    bell_from_op,
    chbsa,
    encode,
    make_hyper_bell,
    measure,
)

IDEAL = BellIndex(Bell.PHI_PLUS, Bell.PHI_PLUS)

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
    outcomes, _ = measure(states, ALL_AXES, rng.random(n), x[:, [0, 0, 1, 1]], collapse=False)
    bits = (outcomes[:, None] >> np.array([3, 2, 1, 0])) & 1  # (a_pol, b_pol, a_spa, b_spa)
    return bits[:, 0] != bits[:, 1], bits[:, 2] != bits[:, 3], x


def intercepted_ideal_pairs(n, strategy, rng):
    """n ideal pairs after one intercept-resend pass, and Eve's record codes."""
    return intercept_block(np.tile(BELL_BASIS[IDEAL.flat()], (n, 1)), strategy, rng)


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
        mismatch = 0
        encoded = apply_encoding(make_hyper_bell(IDEAL), EncodingOp(3, 2))
        expected = bell_from_op(EncodingOp(3, 2))
        for _ in range(n):
            state, _ = intercept_resend(encoded, strategy, rng)
            got = chbsa(state, rng)
            mismatch += got.p != expected.p
            assert got.s == expected.s  # spatial DOF untouched
        assert abs(mismatch / n - IR_BELL_MISMATCH) < 4.0 / math.sqrt(n)

    def test_record_covers_only_masked_dofs(self):
        rng = np.random.default_rng(25)
        strategy = EveStrategy(EveKind.INTERCEPT_RESEND, frozenset({Dof.SPA}))
        _, rec = intercept_resend(make_hyper_bell(IDEAL), strategy, rng)
        assert rec.pol_basis is None and rec.pol_outcome is None
        assert rec.spa_basis in (Basis.Z, Basis.X)
        assert rec.spa_outcome in (0, 1)

    def test_rejects_wrong_kind_and_empty_mask(self):
        with pytest.raises(ValueError):
            EveStrategy(EveKind.INTERCEPT_RESEND, frozenset())
        with pytest.raises(ValueError):
            intercept_resend(
                make_hyper_bell(IDEAL), EveStrategy(EveKind.NONE), np.random.default_rng(0)
            )


class TestGuessing:
    def test_two_pass_guess_accuracy(self):
        # Eve taps both passes of n pairs, Alice applies a uniform op in between
        strategy = EveStrategy(kind=EveKind.INTERCEPT_RESEND)
        rng = np.random.default_rng(26)
        n = 20_000
        states, fwd = intercepted_ideal_pairs(n, strategy, rng)
        ops = rng.integers(16, size=n)
        _, back = intercept_block(encode(states, ops), strategy, rng)
        guesses = guess_encoding_ops(fwd, back, rng.random((n, 2, 2)))
        correct = np.count_nonzero(guesses == ops)
        assert abs(correct / n - TWO_PASS_GUESS_ACCURACY) < 4.0 / math.sqrt(n)

    def test_blind_guess_is_uniform_chance(self):
        rng = np.random.default_rng(27)
        n = 20_000
        correct = sum(
            guess_encoding_op(None, None, rng) == EncodingOp(2, 3) for _ in range(n)
        )
        assert abs(correct / n - 1.0 / 16.0) < 4.0 / math.sqrt(n)


class TestTrojans:
    def test_multiphoton_meta(self):
        meta = craft_trojan(EveKind.TROJAN_MULTIPHOTON, np.random.default_rng(28))
        assert meta == SignalMeta(photon_count=2, wavelength_offset=0.0, delayed=False)

    def test_invisible_sits_outside_filter_window(self):
        rng = np.random.default_rng(29)
        tol = 0.02
        signs = set()
        for _ in range(500):
            meta = craft_trojan(EveKind.TROJAN_INVISIBLE, rng, filter_tolerance=tol)
            assert abs(meta.wavelength_offset) > tol
            assert meta.photon_count == 2
            signs.add(meta.wavelength_offset > 0)
        assert signs == {True, False}

    def test_invisible_clears_filter_edge_when_random_returns_zero(self):
        class ZeroRandom:
            def random(self):
                return 0.0

        tol = 0.02
        meta = craft_trojan(EveKind.TROJAN_INVISIBLE, ZeroRandom(), filter_tolerance=tol)
        assert abs(meta.wavelength_offset) > tol
        cfg = DefenseConfig(filter_enabled=True, filter_tolerance=tol)
        assert apply_defenses(meta, cfg, np.random.default_rng(0)) is DefenseVerdict.FILTERED_OUT

    def test_delay_meta(self):
        meta = craft_trojan(EveKind.TROJAN_DELAY, np.random.default_rng(30))
        assert meta.delayed and meta.photon_count == 2

    def test_rejects_non_trojan_kind(self):
        with pytest.raises(ValueError):
            craft_trojan(EveKind.INTERCEPT_RESEND, np.random.default_rng(0))

    def test_meta_requires_at_least_one_photon(self):
        with pytest.raises(ValueError):
            SignalMeta(photon_count=0)


class TestDefenses:
    def test_legitimate_signal_never_trips(self):
        rng = np.random.default_rng(31)
        cfg = DefenseConfig(filter_enabled=True, pns_enabled=True, pns_kind=PnsKind.IDEAL)
        for _ in range(100):
            assert apply_defenses(SignalMeta.legitimate(), cfg, rng) is DefenseVerdict.CLEAN

    def test_filter_removes_offband_probe_always(self):
        rng = np.random.default_rng(32)
        cfg = DefenseConfig(filter_enabled=True, filter_tolerance=DEFAULT_FILTER_TOLERANCE)
        for _ in range(2000):
            meta = craft_trojan(EveKind.TROJAN_INVISIBLE, rng)
            assert apply_defenses(meta, cfg, rng) is DefenseVerdict.FILTERED_OUT

    def test_ideal_pns_always_alarms_on_two_photons(self):
        rng = np.random.default_rng(33)
        cfg = DefenseConfig(pns_enabled=True, pns_kind=PnsKind.IDEAL)
        for _ in range(2000):
            meta = craft_trojan(EveKind.TROJAN_MULTIPHOTON, rng)
            assert apply_defenses(meta, cfg, rng) is DefenseVerdict.PNS_ALARM

    @pytest.mark.parametrize("count,expected", [(2, 0.5), (3, 0.75)])
    def test_beamsplitter_alarm_frequency(self, count, expected):
        # all n photons exit one port with probability 2**(1-n)
        rng = np.random.default_rng(34)
        cfg = DefenseConfig(pns_enabled=True, pns_kind=PnsKind.BEAMSPLITTER_5050)
        meta = SignalMeta(photon_count=count)
        n = 40_000
        alarms = sum(
            apply_defenses(meta, cfg, rng) is DefenseVerdict.PNS_ALARM for _ in range(n)
        )
        assert abs(alarms / n - expected) < 4.0 / math.sqrt(n)

    def test_disabled_defenses_see_nothing(self):
        rng = np.random.default_rng(35)
        cfg = DefenseConfig()
        for kind in (EveKind.TROJAN_MULTIPHOTON, EveKind.TROJAN_INVISIBLE, EveKind.TROJAN_DELAY):
            meta = craft_trojan(kind, rng)
            assert apply_defenses(meta, cfg, rng) is DefenseVerdict.CLEAN

    def test_enabling_filter_never_lowers_caught_fraction(self):
        rng = np.random.default_rng(36)
        metas = [
            craft_trojan(
                (EveKind.TROJAN_MULTIPHOTON, EveKind.TROJAN_INVISIBLE, EveKind.TROJAN_DELAY)[
                    int(rng.integers(3))
                ],
                rng,
            )
            for _ in range(3000)
        ]
        for pns_enabled in (False, True):
            caught = {}
            for filter_enabled in (False, True):
                cfg = DefenseConfig(
                    filter_enabled=filter_enabled,
                    pns_enabled=pns_enabled,
                    pns_kind=PnsKind.IDEAL,
                )
                caught[filter_enabled] = sum(
                    apply_defenses(m, cfg, np.random.default_rng(37)) is not DefenseVerdict.CLEAN
                    for m in metas
                )
            assert caught[True] >= caught[False]

    def test_rejects_nonpositive_tolerance(self):
        with pytest.raises(ValueError):
            DefenseConfig(filter_tolerance=0.0)
