"""Tests for the lossy Pauli channel.

The 2p/3 per-DOF check error and the (1 - 2p/3)^2 pass probability are
frozen from oracles.pauli_check_error.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import oracles
from test_adversary import check_block
from hyperqsdc.adversary import EveKind, EveStrategy, SignalMeta
from hyperqsdc.channel import ChannelParams, TransmitResult, apply_transit, draw_transit, transmit
from hyperqsdc.hyperstate import (
    BELL_BASIS,
    Basis,
    Bell,
    BellIndex,
    MeasBasis,
    Photon,
    make_hyper_bell,
    measure_photon,
)

IDEAL = BellIndex(Bell.PHI_PLUS, Bell.PHI_PLUS)
NO_EVE = EveStrategy(EveKind.NONE)


def test_frozen_pauli_rates_match_oracle():
    assert abs(oracles.pauli_check_error(0.3) - 0.2) <= 1e-12
    assert abs(oracles.pauli_check_error(0.06) - 0.04) <= 1e-12


def checked_sample(params, rng):
    """Transmit one ideal pair, then run one correlation-check sample on it."""
    res = transmit(make_hyper_bell(IDEAL), SignalMeta.legitimate(), params, NO_EVE, rng)
    if not res.delivered:
        return None
    basis = MeasBasis(
        Basis.X if rng.random() < 0.5 else Basis.Z,
        Basis.X if rng.random() < 0.5 else Basis.Z,
    )
    (a_pol, a_spa), state = measure_photon(res.state, Photon.A, basis, rng)
    (b_pol, b_spa), _ = measure_photon(state, Photon.B, basis, rng)
    return a_pol != b_pol, a_spa != b_spa


class TestTransmit:
    def test_clean_channel_is_transparent(self):
        rng = np.random.default_rng(41)
        state = make_hyper_bell(IDEAL)
        meta = SignalMeta.legitimate()
        for _ in range(50):
            res = transmit(state, meta, ChannelParams(), NO_EVE, rng)
            assert res.delivered
            np.testing.assert_array_equal(res.state.amps, state.amps)
            assert res.meta == meta
            assert res.eve_record is None and not res.trojan_inserted

    def test_loss_frequency(self):
        rng = np.random.default_rng(42)
        params = ChannelParams(loss_prob=0.2)
        n = 20_000
        lost = 0
        for _ in range(n):
            res = transmit(make_hyper_bell(IDEAL), SignalMeta.legitimate(), params, NO_EVE, rng)
            if not res.delivered:
                lost += 1
                assert res.state is None and res.meta is None
        assert abs(lost / n - 0.2) < 4.0 / math.sqrt(n)

    def test_norm_preserved_under_noise(self):
        rng = np.random.default_rng(43)
        params = ChannelParams(pauli_p_pol=0.7, pauli_p_spa=0.7)
        for _ in range(200):
            res = transmit(make_hyper_bell(IDEAL), SignalMeta.legitimate(), params, NO_EVE, rng)
            assert abs(np.linalg.norm(res.state.amps) - 1.0) <= 1e-12

    def test_pauli_error_rate_per_dof(self):
        # one transit of n ideal pairs, then one correlation-check draw per pair
        rng = np.random.default_rng(44)
        params = ChannelParams(pauli_p_pol=0.3, pauli_p_spa=0.3)
        n = 30_000
        drawn = draw_transit(n, params, NO_EVE, rng)
        states, _ = apply_transit(np.tile(BELL_BASIS[IDEAL.flat()], (n, 1)), NO_EVE, drawn.eve,
                                  drawn.paulis)
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
        errs = {"pol": 0, "spa": 0}
        n = 10_000
        for _ in range(n):
            e_pol, e_spa = checked_sample(params, rng)
            errs["pol"] += e_pol
            errs["spa"] += e_spa
        assert errs[quiet] == 0
        assert abs(errs[noisy] / n - 0.5 * 2 / 3) < 4.0 / math.sqrt(n)

    def test_interception_happens_only_when_delivered(self):
        # with certain interception, every delivered transit carries a record
        rng = np.random.default_rng(46)
        params = ChannelParams(loss_prob=0.5)
        eve = EveStrategy(kind=EveKind.INTERCEPT_RESEND)
        for _ in range(200):
            res = transmit(make_hyper_bell(IDEAL), SignalMeta.legitimate(), params, eve, rng)
            assert res.delivered == (res.eve_record is not None)

    def test_trojan_only_touches_meta(self):
        rng = np.random.default_rng(47)
        eve = EveStrategy(kind=EveKind.TROJAN_MULTIPHOTON)
        state = make_hyper_bell(IDEAL)
        res = transmit(state, SignalMeta.legitimate(), ChannelParams(), eve, rng)
        assert res.trojan_inserted
        assert res.meta.photon_count == 2
        np.testing.assert_array_equal(res.state.amps, state.amps)

    def test_same_seed_same_outcomes(self):
        params = ChannelParams(loss_prob=0.1, pauli_p_pol=0.2, pauli_p_spa=0.2)
        eve = EveStrategy(kind=EveKind.INTERCEPT_RESEND)

        def run(seed):
            rng = np.random.default_rng(seed)
            out = []
            for _ in range(100):
                res = transmit(
                    make_hyper_bell(IDEAL), SignalMeta.legitimate(), params, eve, rng
                )
                out.append(
                    (res.delivered, None if res.state is None else res.state.amps.tobytes())
                )
            return out

        assert run(48) == run(48)
        assert run(48) != run(49)


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

    def test_lost_result_is_not_delivered(self):
        assert TransmitResult(delivered=False).state is None
