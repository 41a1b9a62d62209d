"""Tests for the lossy Pauli channel.

The 2p/3 per-DOF check error and the (1 - 2p/3)^2 pass probability are
frozen from oracles.pauli_check_error.
"""

from __future__ import annotations

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from test_adversary import check_block
from hyperqsdc.adversary import (
    SCREENS,
    BasisPolicy,
    DefenseConfig,
    DefenseVerdict,
    EveKind,
    EveStrategy,
    resend,
)
from hyperqsdc.draws import DrawSource
from hyperqsdc.hyperstate import (
    AXIS,
    BELL_BASIS,
    PAULIS,
    Dof,
    Photon,
    SourceParams,
    measure_table,
)
from hyperqsdc.protocol import (
    FATES,
    ChannelParams,
    PairFate,
    SessionGroup,
    transit_draws,
    transmit_forward_group,
)

NO_EVE = EveStrategy(EveKind.NONE)
NO_DEFENSE = DefenseConfig()


def test_frozen_pauli_rates_match_oracle():
    assert abs(oracles.pauli_check_error(0.3) - 0.2) <= 1e-12
    assert abs(oracles.pauli_check_error(0.06) - 0.04) <= 1e-12


def ideal_pairs(n):
    return np.tile(BELL_BASIS[0], (n, 1))


def draw_transit(n, params, eve, defense, rng):
    """The draws of one transit of n photons of one session, whose generator is ``rng``."""
    return transit_draws(DrawSource([rng.bit_generator]), [0], [0, n], params, eve, defense)


def transit(n, params, eve, rng, defense=NO_DEFENSE, states=None):
    """One forward transit of n pairs, ideal ones unless ``states`` is given, as a group of one.

    The group draws from ``rng``; the draws returned are read from a twin of
    it, a second generator in the same state.  Returns the draws, the
    delivered pairs' states and Eve's record codes of them (-1 where she
    measured nothing).
    """
    drawn = draw_transit(n, params, eve, defense, copy.deepcopy(rng))
    group = SessionGroup(n, SourceParams(1.0, 0.0), DrawSource([rng.bit_generator]))
    if states is None:
        group.table[0] = BELL_BASIS[0]
    else:
        group.table, group.index = states.copy(), np.arange(n)
    transmit_forward_group(group, params, eve, defense)
    delivered = group.fates[0] == 0  # still active
    assert np.array_equal(delivered, drawn.delivered)
    assert np.array_equal(group.screens[0, 0][delivered], drawn.screens)
    return drawn, group.table[group.index][delivered], group.eve[0, 0][delivered]


class TestTransmit:
    def test_clean_channel_is_transparent(self):
        rng = np.random.default_rng(41)
        before = rng.bit_generator.state
        n = 50
        drawn, states, codes = transit(n, ChannelParams(), NO_EVE, rng)
        assert drawn.delivered.all()
        np.testing.assert_array_equal(states, ideal_pairs(n))
        # no record, no probe and no Pauli: the signal stays legitimate
        assert (codes == -1).all() and not drawn.screens.any()
        assert not drawn.noise.any()
        # and nothing was drawn
        assert rng.bit_generator.state == before

    def test_loss_frequency(self):
        rng = np.random.default_rng(42)
        params = ChannelParams(loss_prob=0.2)
        n = 20_000
        drawn = draw_transit(n, params, NO_EVE, NO_DEFENSE, rng)
        lost = n - np.count_nonzero(drawn.delivered)
        assert abs(lost / n - 0.2) < 4.0 / math.sqrt(n)

    def test_norm_preserved_under_noise(self):
        rng = np.random.default_rng(43)
        params = ChannelParams(pauli_p_pol=0.7, pauli_p_spa=0.7)
        _, states, _ = transit(200, params, NO_EVE, rng)
        np.testing.assert_allclose(np.linalg.norm(states, axis=1), 1.0, rtol=0, atol=1e-12)

    def test_pauli_error_rate_per_dof(self):
        # one transit of n ideal pairs, then one correlation-check draw per pair
        rng = np.random.default_rng(44)
        params = ChannelParams(pauli_p_pol=0.3, pauli_p_spa=0.3)
        n = 30_000
        _, states, _ = transit(n, params, NO_EVE, rng)
        e_pol, e_spa, _ = check_block(states, rng)
        pol, spa = np.count_nonzero(e_pol), np.count_nonzero(e_spa)
        passed = np.count_nonzero(~(e_pol | e_spa))
        band = 4.0 / math.sqrt(n)
        assert abs(pol / n - 0.2) < band
        assert abs(spa / n - 0.2) < band
        # independent DOFs compose multiplicatively
        assert abs(passed / n - 0.8 * 0.8) < band

    @pytest.mark.parametrize("noisy,quiet", [("pol", "spa"), ("spa", "pol")])
    def test_dofs_are_independent(self, noisy, quiet):
        rng = np.random.default_rng(45)
        params = ChannelParams(**{f"pauli_p_{noisy}": 0.5})
        n = 10_000
        _, states, _ = transit(n, params, NO_EVE, rng)
        e_pol, e_spa, _ = check_block(states, rng)
        errs = {"pol": np.count_nonzero(e_pol), "spa": np.count_nonzero(e_spa)}
        assert errs[quiet] == 0
        assert abs(errs[noisy] / n - 0.5 * 2 / 3) < 4.0 / math.sqrt(n)

    def test_interception_happens_only_when_delivered(self):
        # with certain interception, every delivered transit carries a record
        rng = np.random.default_rng(46)
        params = ChannelParams(loss_prob=0.5)
        eve = EveStrategy(kind=EveKind.INTERCEPT_RESEND)
        drawn, states, codes = transit(200, params, eve, rng)
        delivered = np.count_nonzero(drawn.delivered)
        assert 0 < delivered < 200
        # Eve draws for the delivered photons only, and records each of them
        assert len(drawn.eve[1]) == len(codes) == delivered
        assert (codes >= 0).all()

    def test_trojan_only_touches_meta(self):
        rng = np.random.default_rng(47)
        eve = EveStrategy(kind=EveKind.TROJAN_MULTIPHOTON)
        drawn, states, codes = transit(1, ChannelParams(), eve, rng)
        assert (codes == -1).all()
        assert drawn.screens.tolist() == [SCREENS.index(DefenseVerdict.CLEAN)]
        np.testing.assert_array_equal(states, ideal_pairs(1))
        # the probe adds a second photon, which the ideal photon-number check sees
        pns = DefenseConfig(pns_enabled=True)
        drawn, states, codes = transit(1, ChannelParams(), eve, rng, pns)
        assert drawn.screens.tolist() == [SCREENS.index(DefenseVerdict.PNS_ALARM)]
        np.testing.assert_array_equal(states, ideal_pairs(1))

    def test_invisible_probe_tuned_to_the_receivers_window(self):
        # Eve places the probe just outside the filter window the receiver
        # has, not the default one, so a wider filter still catches each one
        rng = np.random.default_rng(49)
        eve = EveStrategy(kind=EveKind.TROJAN_INVISIBLE)
        wide = DefenseConfig(filter_enabled=True, filter_tolerance=0.08)
        drawn, states, _ = transit(200, ChannelParams(), eve, rng, wide)
        assert (drawn.screens == SCREENS.index(DefenseVerdict.FILTERED_OUT)).all()
        np.testing.assert_array_equal(states, ideal_pairs(200))

    def test_same_seed_same_outcomes(self):
        params = ChannelParams(loss_prob=0.1, pauli_p_pol=0.2, pauli_p_spa=0.2)
        eve = EveStrategy(kind=EveKind.INTERCEPT_RESEND)

        def run(seed):
            drawn, states, codes = transit(100, params, eve, np.random.default_rng(seed))
            return drawn.delivered.tobytes(), states.tobytes(), codes.tobytes()

        assert run(48) == run(48)
        assert run(48) != run(49)


class TestNoiseOnHitRows:
    @given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.03, 0.5, 1.0]),
           st.sampled_from([0.0, 0.03, 0.5]), st.sampled_from(list(EveKind)[:2]))
    @settings(max_examples=80, deadline=None)
    def test_equals_the_product_on_every_row(self, n, seed, p_pol, p_spa, kind):
        # array_equal, as the product with an identity factor may differ
        # from the state it leaves alone only in the sign of a zero
        rng = np.random.default_rng(seed)
        states = rng.normal(size=(n, 16)) + 1j * rng.normal(size=(n, 16))
        states /= np.linalg.norm(states, axis=1, keepdims=True)
        states[: n // 2] = BELL_BASIS[rng.integers(16, size=n // 2)]  # rows with exact zeros
        eve = EveStrategy(kind)
        params = ChannelParams(pauli_p_pol=p_pol, pauli_p_spa=p_spa)
        drawn, got, codes = transit(n, params, eve, rng, states=states)
        expected = states
        if drawn.eve is not None:
            resent, resent_index, expected_codes = resend(states, eve, *drawn.eve, np.arange(n))
            expected = resent[resent_index]
            assert np.array_equal(codes, expected_codes)
        else:
            assert (codes == -1).all()
        for dof, p, which in zip((Dof.POL, Dof.SPA), (p_pol, p_spa), divmod(drawn.noise, 4)):
            if p > 0.0:
                expected = oracles.apply_2x2(expected, AXIS[(Photon.A, dof)], PAULIS[which])
            else:
                assert not which.any()
        assert np.array_equal(got, expected)


def reference_codes(table, index, eve, x, u):
    """Eve's (N, 2, 2) record codes written as two fancy-index writes over her measured DOFs."""
    slots = [k for k, dof in enumerate((Dof.POL, Dof.SPA)) if dof in eve.dof_mask]
    axes = tuple(AXIS[(Photon.A, (Dof.POL, Dof.SPA)[k])] for k in slots)
    outcomes, _ = measure_table(table, index, axes, u, x, collapse=False)
    codes = np.full((len(index), 2, 2), -1, dtype=np.int8)
    codes[:, slots, 0] = x
    codes[:, slots, 1] = (outcomes[:, None] >> np.arange(len(slots))[::-1]) & 1
    return codes


def random_table(rng, rows):
    states = rng.normal(size=(rows, 16)) + 1j * rng.normal(size=(rows, 16))
    return states / np.linalg.norm(states, axis=1, keepdims=True)


EVE_DOFS = pytest.mark.parametrize("dofs", [{Dof.POL}, {Dof.SPA}, {Dof.POL, Dof.SPA}],
                                   ids=["pol", "spa", "both"])


class TestEveRecordWords:
    """Eve's codes are written one column at a time, and a transit copies each pair's four
    as one 4-byte word; the bytes are those of the (N, 2, 2) fancy-index writes."""

    @pytest.mark.parametrize("n", [0, 1, 1023, 20_000])
    @pytest.mark.parametrize("policy", list(BasisPolicy))
    @EVE_DOFS
    def test_resend_codes(self, dofs, policy, n):
        eve = EveStrategy(EveKind.INTERCEPT_RESEND, frozenset(dofs), policy)
        rng = np.random.default_rng([51, n])
        table = random_table(rng, 6)
        index = rng.integers(len(table), size=n)
        x = (rng.random((n, len(dofs))) < 0.5 if policy is BasisPolicy.UNIFORM_ZX
             else np.full((n, len(dofs)), policy is BasisPolicy.FIXED_X))
        u = rng.random(n)
        _, _, codes = resend(table, eve, x, u, index)
        assert codes.dtype == np.int8 and codes.shape == (n, 2, 2)
        assert codes.tobytes() == reference_codes(table, index, eve, x, u).tobytes()

    @pytest.mark.parametrize("n", [0, 1, 1023, 20_000])
    @pytest.mark.parametrize("loss", [0.0, 0.25])
    @pytest.mark.parametrize("policy", list(BasisPolicy))
    @EVE_DOFS
    def test_transit_writes_the_codes_bytes(self, dofs, policy, loss, n):
        # n = 0: a group of 4 pairs, none of them in play
        eve = EveStrategy(EveKind.INTERCEPT_RESEND, frozenset(dofs), policy)
        params = ChannelParams(loss_prob=loss)
        rng = np.random.default_rng([52, n])
        table = random_table(rng, 6)
        index = rng.integers(len(table), size=n or 4)
        drawn = draw_transit(n, params, eve, NO_DEFENSE, copy.deepcopy(rng))
        group = SessionGroup(n or 4, SourceParams(1.0, 0.0), DrawSource([rng.bit_generator]))
        group.table, group.index = table.copy(), index.copy()
        if not n:
            group.fates[:] = FATES.index(PairFate.CONSUMED_CHECK)
        transmit_forward_group(group, params, eve)
        rows = drawn.delivered.nonzero()[0]
        expected = np.full(group.eve.shape, -1, dtype=np.int8)
        expected[0].reshape(-1, 2, 2)[rows] = reference_codes(table, index[rows], eve, *drawn.eve)
        assert group.eve.tobytes() == expected.tobytes()


class TestParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"loss_prob": -0.1},
            {"loss_prob": 1.0},
            {"pauli_p_pol": 1.2},
            {"pauli_p_spa": -0.2},
        ],
    )
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ValueError):
            ChannelParams(**kwargs)
