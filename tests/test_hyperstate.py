"""Tests for the 16-dimensional pair-state mechanics.

Expected values marked "frozen" were computed with the independent
constructions in oracles.py before the implementation existed.
"""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hyperqsdc import hyperstate as hs
from hyperqsdc.hyperstate import (
    ATOL,
    AXIS,
    BELL_BASIS,
    Dof,
    EncodingOp,
    Photon,
    SourceParams,
    bell_labels_table,
    correlation_error_probs,
    encode,
    measure_table,
    outcome_probs,
    source_fidelity,
)

from test_block_kernels import in_z

ALL_OPS = [EncodingOp(i, j) for i in (1, 2, 3, 4) for j in (1, 2, 3, 4)]
# X-basis choice (pol, spa) for both photons: ZZ, ZX, XZ, XX
ALL_MEAS_BASES = [(pol, spa) for pol in (False, True) for spa in (False, True)]
# a Bell label is its row 4 * pol + spa of BELL_BASIS, one DOF's labels phi+, phi-, psi+, psi-
IDEAL = BELL_BASIS[0]
A_AXES = (AXIS[(Photon.A, Dof.POL)], AXIS[(Photon.A, Dof.SPA)])
B_AXES = (AXIS[(Photon.B, Dof.POL)], AXIS[(Photon.B, Dof.SPA)])
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def random_state(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=16) + 1j * rng.normal(size=16)
    return vec / np.linalg.norm(vec)


def tiled(state: np.ndarray, n: int) -> np.ndarray:
    """A block of n copies of one pair state."""
    return np.tile(state, (n, 1))


def label(pol_name: str, spa_name: str) -> int:
    """The flat Bell label 4 * pol + spa of two single-DOF Bell state names."""
    return 4 * oracles.BELL4_ORDER.index(pol_name) + oracles.BELL4_ORDER.index(spa_name)


class TestBellConstruction:
    def test_ideal_state_amplitudes(self):
        # |HH>(|a1b1>+|a2b2>) + |VV>(...) with weight 1/2 on four kets
        expected = np.zeros(16, dtype=complex)
        expected[[0, 3, 12, 15]] = 0.5
        np.testing.assert_allclose(BELL_BASIS[label("phi+", "phi+")], expected, atol=ATOL)

    def test_pol_phase_flip_signs(self):
        # polarization phi- keeps the same four kets with signs +, +, -, -
        expected = np.zeros(16, dtype=complex)
        expected[[0, 3]] = 0.5
        expected[[12, 15]] = -0.5
        np.testing.assert_allclose(BELL_BASIS[label("phi-", "phi+")], expected, atol=ATOL)

    @pytest.mark.parametrize("p_name", oracles.BELL4_ORDER)
    @pytest.mark.parametrize("s_name", oracles.BELL4_ORDER)
    def test_matches_ket_by_ket_construction(self, p_name, s_name):
        np.testing.assert_allclose(
            BELL_BASIS[label(p_name, s_name)], oracles.hyper_bell_16(p_name, s_name), atol=ATOL
        )

    def test_gram_matrix_is_identity(self):
        gram = BELL_BASIS.conj() @ BELL_BASIS.T
        np.testing.assert_allclose(gram, np.eye(16), atol=ATOL)

    def test_ket_index_order(self):
        # big-endian (pol_a, pol_b, spa_a, spa_b): the Z outcomes of a basis ket
        order = [(Photon.A, Dof.POL), (Photon.B, Dof.POL), (Photon.A, Dof.SPA), (Photon.B, Dof.SPA)]
        for k, bits in ((8, (1, 0, 0, 0)), (4, (0, 1, 0, 0)), (2, (0, 0, 1, 0)),
                        (1, (0, 0, 0, 1)), (15, (1, 1, 1, 1))):
            ket = np.zeros((1, 16), dtype=complex)
            ket[0, k] = 1.0
            got = [outcome_probs(ket, (AXIS[key],), in_z(1))[0].tolist() for key in order]
            assert got == [[1 - bit, bit] for bit in bits]


class TestEncoding:
    def test_identity_op_is_exact_identity(self):
        st16 = random_state(7)
        np.testing.assert_array_equal(encode(st16[None], np.array([EncodingOp(1, 1).code]))[0],
                                      st16)

    @pytest.mark.parametrize("op", ALL_OPS)
    def test_matches_ket_by_ket_action(self, op):
        st16 = random_state(op.i * 10 + op.j)
        expected = oracles.apply_op_16(st16, op.i, op.j)
        np.testing.assert_allclose(encode(st16[None], np.array([op.code]))[0], expected, atol=ATOL)

    def test_bijection_is_exhaustive(self):
        # the op code, which is also the Bell label it takes the ideal pair to, names each op once
        assert sorted(op.code for op in ALL_OPS) == list(range(16))
        for op in ALL_OPS:
            assert EncodingOp.from_code(op.code) == op
        for code in range(16):
            assert EncodingOp.from_code(code).code == code

    def test_encoded_states_are_bell_states_up_to_phase(self):
        # op code k takes the ideal pair to the hyper-Bell state of label k
        encoded = encode(tiled(IDEAL, 16), np.array([op.code for op in ALL_OPS]))
        for op, state in zip(ALL_OPS, encoded):
            assert oracles.same_ray(state, BELL_BASIS[op.code])

    def test_known_op_image(self):
        # frozen: pol phase flip + spatial flip-and-phase land on (phi-, psi-)
        code = EncodingOp(2, 4).code
        assert code == label("phi-", "psi-")
        [state] = encode(IDEAL[None], np.array([code]))
        assert oracles.same_ray(state, oracles.hyper_bell_16("phi-", "psi-"))

    @pytest.mark.parametrize("bad", [(0, 1), (5, 1), (1, 0), (1, 5)])
    def test_rejects_bad_indices(self, bad):
        with pytest.raises(ValueError):
            EncodingOp(*bad)


class TestBellReadout:
    def test_deterministic_on_bell_states(self):
        rng = np.random.default_rng(3)
        labels = bell_labels_table(BELL_BASIS, np.arange(16), rng.random(16))
        assert labels.tolist() == list(range(16))

    def test_recovers_every_encoding_with_probability_one(self):
        # 8 pairs per op, each read with its own uniform
        rng = np.random.default_rng(4)
        codes = np.repeat([op.code for op in ALL_OPS], 8)
        labels = bell_labels_table(encode(tiled(IDEAL, len(codes)), codes),
                                   np.arange(len(codes)), rng.random(len(codes)))
        assert labels.tolist() == codes.tolist()  # Bob decodes label k as op code k

    def test_born_statistics_on_superposition(self):
        # equal superposition of two hyper-Bell states: each at 1/2 +- 4/sqrt(N)
        a, b = label("phi+", "phi+"), label("psi+", "phi-")
        st16 = (BELL_BASIS[a] + BELL_BASIS[b]) / np.linalg.norm(BELL_BASIS[a] + BELL_BASIS[b])
        rng = np.random.default_rng(5)
        n = 20_000
        counts = np.bincount(bell_labels_table(tiled(st16, n), np.arange(n), rng.random(n)),
                             minlength=16)
        band = 4.0 / math.sqrt(n)
        assert abs(counts[a] / n - 0.5) < band
        assert abs(counts[b] / n - 0.5) < band
        assert np.count_nonzero(counts) == 2

    def test_born_statistics_on_random_state(self):
        st16 = random_state(11)
        exact = np.abs(BELL_BASIS.conj() @ st16) ** 2
        rng = np.random.default_rng(6)
        n = 20_000
        freq = np.bincount(bell_labels_table(tiled(st16, n), np.arange(n), rng.random(n)),
                           minlength=16)
        np.testing.assert_allclose(freq / n, exact, atol=4.0 / math.sqrt(n))


class TestMeasurement:
    @pytest.mark.parametrize("basis", ALL_MEAS_BASES)
    def test_ideal_pair_correlates_in_matching_bases(self, basis):
        # photon A is read first, then photon B of the collapsed pairs, both DOFs in one draw
        rng = np.random.default_rng(8)
        n = 64
        x = np.tile(basis, (n, 1))
        a_bits, (table, index) = measure_table(tiled(IDEAL, n), np.arange(n),
                                               A_AXES, rng.random(n), x)
        b_bits, _ = measure_table(table, index, B_AXES, rng.random(n), x)
        np.testing.assert_array_equal(a_bits, b_bits)

    def test_spatial_phase_flip_anticorrelates_in_x(self):
        st16 = BELL_BASIS[label("phi+", "phi-")]
        [[p_pol, p_spa]] = correlation_error_probs(st16[None], np.array([[True, True]]))
        assert abs(p_pol) <= ATOL
        assert abs(p_spa - 1.0) <= ATOL
        [[p_pol, p_spa]] = correlation_error_probs(st16[None], np.array([[False, False]]))
        assert abs(p_pol) <= ATOL
        assert abs(p_spa) <= ATOL

    def test_repeat_measurement_is_stable(self):
        rng = np.random.default_rng(9)
        n = 16
        states = np.array([random_state(100 + seed) for seed in range(n)])
        for dof in (Dof.POL, Dof.SPA):
            for in_x in (False, True):
                axes, x = (AXIS[(Photon.A, dof)],), np.full((n, 1), in_x)
                bits, (table, index) = measure_table(states, np.arange(n), axes, rng.random(n), x)
                again, _ = measure_table(table, index, axes, rng.random(n), x)
                np.testing.assert_array_equal(again, bits)

    def test_outcome_marginals_match_born_rule(self):
        st16 = random_state(42)
        rng = np.random.default_rng(10)
        n = 20_000
        bits, _ = measure_table(tiled(st16, n), np.arange(n), (AXIS[(Photon.B, Dof.SPA)],),
                                rng.random(n), np.ones((n, 1), dtype=bool), collapse=False)
        ones = np.count_nonzero(bits)
        # the X basis of spa_b: a Hadamard on the last tensor axis
        work = np.einsum("ij,abcj->abci", HADAMARD, st16.reshape(2, 2, 2, 2))
        exact = float(np.sum(np.abs(work[:, :, :, 1]) ** 2))
        assert abs(ones / n - exact) < 4.0 / math.sqrt(n)

    def test_collapse_keeps_partner_correlation(self):
        rng = np.random.default_rng(12)
        st16 = IDEAL[None]
        in_z = np.zeros((1, 1), dtype=bool)
        bit, (table, index) = measure_table(st16, np.arange(1), (AXIS[(Photon.A, Dof.POL)],),
                                            rng.random(1), in_z)
        bit_b, _ = measure_table(table, index, (AXIS[(Photon.B, Dof.POL)],), rng.random(1), in_z)
        assert bit_b[0] == bit[0]


class TestHadamard:
    @pytest.mark.parametrize("who", [Photon.A, Photon.B])
    @pytest.mark.parametrize("dof", [Dof.POL, Dof.SPA])
    def test_involution(self, who, dof):
        # the Z-to-X basis change in front of a draw also undoes itself after the collapse
        st16 = random_state(13)[None]
        axes, x = (AXIS[(who, dof)],), np.ones((1, 1), dtype=bool)
        back = hs._rotate(hs._rotate(st16, axes, x), axes, x)
        np.testing.assert_allclose(back, st16, atol=ATOL)


class TestSource:
    def test_ideal_params_reproduce_ideal_pair(self):
        st16 = SourceParams(r=1.0, phi=0.0).amplitudes
        np.testing.assert_allclose(st16, IDEAL, atol=ATOL)

    def test_opposite_phase_gives_spatial_phase_flip(self):
        st16 = SourceParams(r=1.0, phi=math.pi).amplitudes
        assert oracles.same_ray(st16, BELL_BASIS[label("phi+", "phi-")])

    @pytest.mark.parametrize(
        "r,phi,expected",
        [(1.0, 0.0, 1.0), (1.0, math.pi, 0.0), (0.5, 0.0, 0.9), (0.0, 2.0, 0.5)],
    )
    def test_fidelity_anchor_points(self, r, phi, expected):
        assert abs(source_fidelity(SourceParams(r, phi)) - expected) <= ATOL

    @given(
        r=st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
        phi=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    )
    @settings(max_examples=120, deadline=None)
    def test_fidelity_matches_closed_form(self, r, phi):
        got = source_fidelity(SourceParams(r, phi))
        assert abs(got - oracles.source_fidelity_formula(r, phi)) <= 1e-12

    def test_state_matches_ket_construction(self):
        params = SourceParams(r=0.7, phi=1.1)
        np.testing.assert_allclose(
            params.amplitudes, oracles.source_16(0.7, 1.1), atol=ATOL
        )

    def test_rejects_negative_r(self):
        with pytest.raises(ValueError):
            SourceParams(r=-0.1, phi=0.0)

    @pytest.mark.parametrize("r,phi,field", [
        (math.nan, 0.0, "ratio r"), (math.inf, 0.0, "ratio r"),
        (1.0, math.nan, "phase phi"), (1.0, -math.inf, "phase phi"),
    ], ids=["r_nan", "r_inf", "phi_nan", "phi_inf"])
    def test_rejects_non_finite_parameters(self, r, phi, field):
        with pytest.raises(ValueError, match=field):
            SourceParams(r=r, phi=phi)


class TestStateVectors:
    @pytest.mark.parametrize("r", [0.0, 5e-324, 1e-200, 1e154, 1e308, sys.float_info.max])
    def test_source_rows_are_finite_and_normalized(self, r):
        # every pair a block starts from is a row of BELL_BASIS or a source's
        # amplitudes, so these must hold for every accepted (r, phi); the scaled
        # construction keeps the norm from overflowing or underflowing
        for phi in (0.0, 1.1, -1e300):
            st16 = SourceParams(r, phi).amplitudes
            assert np.isfinite(st16).all()
            assert abs(np.linalg.norm(st16) - 1.0) <= 1e-12

    def test_global_phase_equality(self):
        st16 = random_state(14)
        rotated = st16 * np.exp(1j * 0.83)
        assert oracles.same_ray(st16, rotated)
        assert oracles.same_ray(rotated, st16)

    def test_distinct_states_not_equiv(self):
        assert not oracles.same_ray(BELL_BASIS[label("phi+", "phi+")],
                                    BELL_BASIS[label("phi+", "psi+")])

    def test_amplitudes_read_only(self):
        # the source's amplitudes are computed once per SourceParams and shared by every block
        st16 = SourceParams(r=0.7, phi=1.1).amplitudes
        with pytest.raises(ValueError):
            st16[0] = 1.0

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_encoding_preserves_norm(self, seed):
        st16 = random_state(seed)
        for op in (EncodingOp(2, 3), EncodingOp(4, 4)):
            [out] = encode(st16[None], np.array([op.code]))
            assert abs(np.linalg.norm(out) - 1.0) <= 1e-12
