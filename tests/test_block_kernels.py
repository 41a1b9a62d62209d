"""Property tests of the whole-block state kernels.

A block result must equal the same kernel called row by row (N=1) with the
same uniforms, the single-pair API must be exactly such an N=1 call, and
the exact outcome probabilities must match the independent constructions
in oracles.py.  Degenerate rows (probabilities 0 or 1, totals a rounding
error short of 1) must be drawn exactly.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hyperqsdc import hyperstate as hs
from hyperqsdc.adversary import EveKind, EveRecord, EveStrategy, intercept_block, intercept_resend
from hyperqsdc.harness import parse_run_config, run
from hyperqsdc.hyperstate import (
    ALL_AXES,
    AXIS,
    BELL_BASIS,
    Basis,
    BellIndex,
    Dof,
    HyperState,
    MeasBasis,
    Photon,
    apply_local,
    bell_labels,
    chbsa,
    correlation_error_probs,
    measure,
    measure_photon,
    measure_photon_dof,
    outcome_probs,
)

# every ascending set of tensor axes a kernel may measure
AXES_SETS = [
    tuple(a for a in ALL_AXES if mask >> a & 1) for mask in range(1, 16)
]


class FixedUniforms:
    """Generator stand-in whose ``random`` hands out preset uniforms in order."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size):
        out = np.array([self.values.pop(0) for _ in range(int(np.prod(size)))])
        return out.reshape(size)


@st.composite
def blocks(draw, max_rows=40):
    """(states, x mask over all four axes, uniforms) for a random block."""
    n = draw(st.integers(min_value=1, max_value=max_rows))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    states = rng.normal(size=(n, 16)) + 1j * rng.normal(size=(n, 16))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    return states, rng.random((n, 4)) < 0.5, rng.random(n)


def _assert_same_rows(block, rows):
    np.testing.assert_allclose(block, np.concatenate(rows), rtol=0, atol=1e-12)


class TestBlockEqualsRows:
    @given(blocks(), st.sampled_from(AXES_SETS), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_measure(self, block, axes, rotated):
        states, x, u = block
        x = x[:, : len(axes)] if rotated else None
        outcomes, post = measure(states, axes, u, x)
        for k in range(len(states)):
            xk = None if x is None else x[k : k + 1]
            o_k, post_k = measure(states[k : k + 1], axes, u[k : k + 1], xk)
            assert o_k[0] == outcomes[k]
            np.testing.assert_allclose(post[k], post_k[0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(post, axis=1), 1.0, rtol=0, atol=1e-12)

    @given(blocks(), st.sampled_from(AXES_SETS))
    @settings(max_examples=60, deadline=None)
    def test_outcome_probs(self, block, axes):
        states, x, _ = block
        x = x[:, : len(axes)]
        probs = outcome_probs(states, axes, x)
        _assert_same_rows(probs, [outcome_probs(states[k : k + 1], axes, x[k : k + 1])
                                  for k in range(len(states))])
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    @given(blocks(), st.integers(min_value=0, max_value=3), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_apply_local(self, block, axis, per_row):
        states, x, _ = block
        ops = hs.PAULIS[(2 * x[:, 0] + x[:, 1]).astype(np.intp)] if per_row else hs.PAULIS[2]
        out = apply_local(states, axis, ops)
        _assert_same_rows(out, [apply_local(states[k : k + 1], axis, ops[k] if per_row else ops)
                                for k in range(len(states))])

    @given(blocks())
    @settings(max_examples=60, deadline=None)
    def test_bell_labels(self, block):
        states, _, u = block
        labels = bell_labels(states, u)
        assert [bell_labels(states[k : k + 1], u[k : k + 1])[0] for k in range(len(states))] == \
            labels.tolist()

    @given(blocks())
    @settings(max_examples=40, deadline=None)
    def test_encode_is_the_generic_product(self, block):
        # the signed-permutation encoder gives exactly the amplitudes of the
        # two 2x2 products on photon A's axes
        states, x, _ = block
        codes = (8 * x[:, 0] + 4 * x[:, 1] + 2 * x[:, 2] + x[:, 3]).astype(np.intp)
        generic = apply_local(apply_local(states, 0, hs._DOF_OPS[codes >> 2]),
                              2, hs._DOF_OPS[codes & 3])
        np.testing.assert_array_equal(hs.encode(states, codes), generic)

    @given(blocks(), st.sampled_from([frozenset({Dof.POL}), frozenset({Dof.SPA}),
                                      frozenset({Dof.POL, Dof.SPA})]))
    @settings(max_examples=40, deadline=None)
    def test_intercept(self, block, dofs):
        states, x, u = block
        n = len(states)
        strategy = EveStrategy(EveKind.INTERCEPT_RESEND, dofs)
        # the uniform basis policy draws one basis uniform per row and DOF, then
        # one outcome uniform per row; a uniform below 1/2 picks X
        draws = [(0.75 - 0.5 * x[:, : len(dofs)]).ravel(), u]
        out, codes = intercept_block(states, strategy, FixedUniforms(np.concatenate(draws)))
        for k in range(n):
            row_draws = [0.75 - 0.5 * x[k, m] for m in range(len(dofs))] + [u[k]]
            rng_k = FixedUniforms(row_draws)
            state_k, rec = intercept_resend(HyperState(states[k]), strategy, rng_k)
            np.testing.assert_allclose(out[k], state_k.amps, rtol=0, atol=1e-12)
            assert rec == EveRecord.from_codes(codes[k])


# ---------------------------------------------------------------------------
# the Z/X basis change is bitwise the generic 2x2 product
# ---------------------------------------------------------------------------

# I for a row measured in Z, H for a row measured in X
TO_BASIS = np.stack([np.eye(2, dtype=complex),
                     np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)])

MASK_KINDS = ("all_z", "all_x", "random", "one_basis_per_dof")


def x_mask(kind: str, x: np.ndarray, axes: tuple) -> np.ndarray:
    """An (N, len(axes)) X mask of the given kind, cut from a random (N, 4) one."""
    if kind == "all_z":
        return np.zeros((len(x), len(axes)), dtype=bool)
    if kind == "all_x":
        return np.ones((len(x), len(axes)), dtype=bool)
    if kind == "random":
        return x[:, : len(axes)]
    # both photons of a DOF in one basis, as in the correlation check
    return x[:, [axis // 2 for axis in axes]]


def generic_basis_change(states: np.ndarray, axes: tuple, x: np.ndarray) -> np.ndarray:
    """The basis change as one per-row ``apply_local`` per measured axis, in ascending order."""
    for m, axis in enumerate(axes):
        states = apply_local(states, axis, TO_BASIS[x[:, m].astype(np.intp)])
    return states


def assert_basis_change_exact(states, axes, x):
    expected = generic_basis_change(states, axes, x)
    runs = hs._x_rows(axes, x)
    assert np.array_equal(hs._rotate(states, runs), expected)
    assert np.array_equal(hs._rotate(states.copy(), runs, fresh=True), expected)
    assert np.array_equal(outcome_probs(states, axes, x), hs._snap(hs._born(expected, axes)))


class TestHadamardBasisChange:
    @given(blocks(), st.sampled_from(AXES_SETS), st.sampled_from(MASK_KINDS))
    @settings(max_examples=150, deadline=None)
    def test_equals_generic_product(self, block, axes, kind):
        states, x, _ = block
        assert_basis_change_exact(states, axes, x_mask(kind, x, axes))

    def test_equals_generic_product_on_a_large_block(self):
        rng = np.random.default_rng(6)
        n = 3000
        states = rng.normal(size=(n, 16)) + 1j * rng.normal(size=(n, 16))
        states /= np.linalg.norm(states, axis=1, keepdims=True)
        states[:16] = BELL_BASIS  # rows with exact zeros
        x = rng.random((n, 4)) < 0.5
        for axes in AXES_SETS:
            for kind in MASK_KINDS:
                assert_basis_change_exact(states, axes, x_mask(kind, x, axes))

    @given(blocks(), st.sampled_from(AXES_SETS), st.sampled_from(MASK_KINDS), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_measure_leaves_its_input_unmodified(self, block, axes, kind, collapse):
        states, x, u = block
        x = x_mask(kind, x, axes)
        before = states.copy()
        measure(states, axes, u, x, collapse=collapse)
        outcome_probs(states, axes, x)
        assert np.array_equal(states, before)


class TestScalarApiIsOneRow:
    @given(blocks(max_rows=1), st.sampled_from(list(Photon)), st.sampled_from(list(Dof)),
           st.sampled_from(list(Basis)))
    @settings(max_examples=60, deadline=None)
    def test_measure_photon_dof(self, block, who, dof, basis):
        states, _, u = block
        bit, post = measure_photon_dof(HyperState(states[0]), who, dof, basis, FixedUniforms(u))
        o, post_block = measure(states, (AXIS[(who, dof)],), u, np.array([[basis is Basis.X]]))
        assert bit == o[0]
        np.testing.assert_allclose(post.amps, post_block[0], rtol=0, atol=1e-12)

    @given(blocks(max_rows=1), st.sampled_from(list(Photon)))
    @settings(max_examples=40, deadline=None)
    def test_measure_photon(self, block, who):
        states, x, u = block
        basis = MeasBasis(*(Basis.X if b else Basis.Z for b in x[0, :2]))
        (b_pol, b_spa), post = measure_photon(HyperState(states[0]), who, basis, FixedUniforms(u))
        axes = (AXIS[(who, Dof.POL)], AXIS[(who, Dof.SPA)])
        o, post_block = measure(states, axes, u, x[:, :2])
        assert (b_pol, b_spa) == (o[0] >> 1, o[0] & 1)
        np.testing.assert_allclose(post.amps, post_block[0], rtol=0, atol=1e-12)

    @given(blocks(max_rows=1), st.sampled_from(list(Photon)))
    @settings(max_examples=40, deadline=None)
    def test_joint_draw_equals_one_dof_after_the_other(self, block, who):
        # the same two outcome probabilities either way: P(pol) * P(spa | pol)
        states, x, _ = block
        axes = (AXIS[(who, Dof.POL)], AXIS[(who, Dof.SPA)])
        joint = outcome_probs(states, axes, x[:, :2])[0]
        for pol in (0, 1):
            p_pol = outcome_probs(states, axes[:1], x[:, :1])[0][pol]
            if p_pol == 0.0:
                assert joint[2 * pol] == joint[2 * pol + 1] == 0.0
                continue
            u_pol = np.array([p_pol / 2 if pol == 0 else 1 - p_pol / 2])  # mid-bucket
            bit, mid = measure(states, axes[:1], u_pol, x[:, :1])
            assert bit[0] == pol
            cond = outcome_probs(mid, axes[1:], x[:, 1:2])[0]
            np.testing.assert_allclose(joint[2 * pol : 2 * pol + 2], p_pol * cond, rtol=0, atol=1e-12)

    @given(blocks(max_rows=1))
    @settings(max_examples=40, deadline=None)
    def test_chbsa(self, block):
        states, _, u = block
        got = chbsa(HyperState(states[0]), FixedUniforms(u))
        assert got.flat() == bell_labels(states, u)[0]


# ---------------------------------------------------------------------------
# exact probabilities against the oracles
# ---------------------------------------------------------------------------

BELL_NAMES = oracles.BELL4_ORDER


def _dof_factor(bell_name: str, op: int) -> np.ndarray:
    """One DOF of the oracle state: op on qubit a of a Bell 4-vector."""
    return np.kron(oracles.DOF_OP4[op], oracles.I2) @ oracles.BELL4[bell_name]


coded_pairs = st.tuples(
    st.sampled_from(BELL_NAMES), st.sampled_from(BELL_NAMES),
    st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4),
)


class TestProbabilitiesMatchOracles:
    @given(coded_pairs, st.sampled_from(["Z", "X"]), st.sampled_from(["Z", "X"]))
    @settings(max_examples=80, deadline=None)
    def test_single_qubit_outcomes(self, pair, pol_basis, spa_basis):
        p_name, s_name, i, j = pair
        state = oracles.apply_op_16(oracles.hyper_bell_16(p_name, s_name), i, j)
        factors = {Dof.POL: _dof_factor(p_name, i), Dof.SPA: _dof_factor(s_name, j)}
        bases = {Dof.POL: pol_basis, Dof.SPA: spa_basis}
        for who in Photon:
            for dof in Dof:
                x = np.array([[bases[dof] == "X"]])
                probs = outcome_probs(state[None], (AXIS[(who, dof)],), x)[0]
                for bit in (0, 1):
                    expected, _ = oracles.project_qubit(
                        factors[dof], who.value.lower(), bases[dof], bit
                    )
                    assert abs(probs[bit] - expected) <= 1e-12

    @given(coded_pairs, st.sampled_from(["Z", "X"]))
    @settings(max_examples=80, deadline=None)
    def test_joint_outcomes(self, pair, basis):
        p_name, s_name, i, j = pair
        state = oracles.apply_op_16(oracles.hyper_bell_16(p_name, s_name), i, j)
        for dof, factor, axes in ((Dof.POL, _dof_factor(p_name, i), (0, 1)),
                                  (Dof.SPA, _dof_factor(s_name, j), (2, 3))):
            probs = outcome_probs(state[None], axes, np.array([[basis == "X"] * 2]))[0]
            for a in (0, 1):
                for b in (0, 1):
                    expected = oracles.joint_outcome_prob(factor, basis, a, b)
                    assert abs(probs[2 * a + b] - expected) <= 1e-12
        meas = MeasBasis(Basis(basis), Basis(basis))
        p_pol, p_spa = correlation_error_probs(HyperState(state), meas)
        for got, factor in ((p_pol, _dof_factor(p_name, i)), (p_spa, _dof_factor(s_name, j))):
            expected = sum(oracles.joint_outcome_prob(factor, basis, a, 1 - a) for a in (0, 1))
            assert abs(got - expected) <= 1e-12

    @given(coded_pairs)
    @settings(max_examples=80, deadline=None)
    def test_bell_outcomes(self, pair):
        p_name, s_name, i, j = pair
        state = oracles.apply_op_16(oracles.hyper_bell_16(p_name, s_name), i, j)
        probs = outcome_probs(state[None] @ BELL_BASIS.conj().T, ALL_AXES)[0]
        pol = oracles.bell_outcome_probs(_dof_factor(p_name, i))
        spa = oracles.bell_outcome_probs(_dof_factor(s_name, j))
        for k in range(16):
            label = BellIndex.from_flat(k)
            expected = pol[BELL_NAMES[label.p]] * spa[BELL_NAMES[label.s]]
            assert abs(probs[k] - expected) <= 1e-12

    @given(coded_pairs, st.sampled_from(["Z", "X"]), st.floats(min_value=0.0, max_value=0.999))
    @settings(max_examples=80, deadline=None)
    def test_collapse_matches_projection(self, pair, basis, u):
        p_name, s_name, i, j = pair
        state = oracles.apply_op_16(oracles.hyper_bell_16(p_name, s_name), i, j)
        pol = _dof_factor(p_name, i)
        bits, post = measure(state[None], (AXIS[(Photon.A, Dof.POL)],), np.array([u]),
                             np.array([[basis == "X"]]))
        p, collapsed_pol = oracles.project_qubit(pol, "a", basis, int(bits[0]))
        assert p > 0.0
        expected = np.kron(collapsed_pol, _dof_factor(s_name, j))
        np.testing.assert_allclose(post[0], expected, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# degenerate rows
# ---------------------------------------------------------------------------

LAST_UNIFORM = np.nextafter(1.0, 0.0)


def _ket(k: int, weight: float = 1.0) -> np.ndarray:
    amps = np.zeros(16, dtype=complex)
    amps[k] = np.sqrt(weight)
    return amps


class TestDegenerateRows:
    @pytest.mark.parametrize("u", [0.0, 0.5, LAST_UNIFORM])
    def test_certain_outcomes(self, u):
        # |V,H,a2,b1> = index 10: pol_a is 1 and spa_b is 0 with probability 1
        states = np.array([_ket(10)])
        for axis, expected in ((0, 1), (3, 0)):
            bits, post = measure(states, (axis,), np.array([u]))
            assert bits[0] == expected
            np.testing.assert_array_equal(post[0], states[0])
            assert outcome_probs(states, (axis,))[0].tolist() == [1 - expected, expected]

    def test_total_short_of_one_never_draws_a_zero_bucket(self):
        # outcome 1 of axis 0 has probability exactly 0 and the row's total is 1 - 1e-15
        states = np.array([_ket(3, 1.0 - 1e-15)])
        bits, post = measure(states, (0,), np.array([LAST_UNIFORM]))
        assert bits[0] == 0
        assert abs(np.linalg.norm(post[0]) - 1.0) <= 1e-12

    def test_cdf_edge_lands_on_last_positive_outcome(self):
        # joint outcomes of axes (0, 1): 0.5, 0.5 - 1e-15, 0, 0
        amps = _ket(0, 0.5) + _ket(4, 0.5 - 1e-15)
        bits, _ = measure(amps[None], (0, 1), np.array([LAST_UNIFORM]))
        assert bits[0] == 1

    def test_near_zero_probability_snaps_to_zero(self):
        amps = _ket(0, 1.0 - 1e-13) + _ket(8, 1e-13)
        assert outcome_probs(amps[None], (0,))[0].tolist() == [1.0, 0.0]
        for u in (0.0, 1e-14, 0.5, LAST_UNIFORM):
            bits, post = measure(amps[None], (0,), np.array([u]))
            assert bits[0] == 0
            assert post[0][8] == 0.0

    def test_x_basis_certain_outcome(self):
        # |+> on pol_a: X outcome 0 with probability exactly 1 after snapping
        plus = (_ket(0) + _ket(8)) / np.sqrt(2)
        assert outcome_probs(plus[None], (0,), np.array([[True]]))[0].tolist() == [1.0, 0.0]
        bits, post = measure(plus[None], (0,), np.array([LAST_UNIFORM]), np.array([[True]]))
        assert bits[0] == 0
        np.testing.assert_allclose(post[0], plus, rtol=0, atol=1e-12)

    def test_all_zero_row_is_rejected(self):
        with pytest.raises(ValueError, match="all zero"):
            measure(np.zeros((1, 16), dtype=complex), (0,), np.array([0.5]))


def test_run_builds_no_single_pair_states(monkeypatch):
    """Every session runs on the block kernels, without one HyperState per pair."""
    built = []
    original = HyperState.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(HyperState, "__init__", counting)
    rc = parse_run_config(
        "[run]\nsessions = 4\n[protocol]\nerror_threshold = 1.0\n"
        "[channel]\nloss_prob = 0.1\npauli_p_pol = 0.05\npauli_p_spa = 0.05\n"
        "[adversary]\nkind = intercept_resend\n[defense]\nfilter_enabled = true\n"
    )
    stats, _ = run(rc, 3)
    assert stats.accepted == 4
    assert built == []
