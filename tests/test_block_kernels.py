"""Property tests of the whole-block state kernels.

A block result must equal the same kernel called row by row (N=1) with the
same uniforms, and the exact outcome probabilities must match the
independent constructions in oracles.py.  Degenerate rows (probabilities 0
or 1, totals a rounding error short of 1) must be drawn exactly.
"""

from __future__ import annotations

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hyperqsdc import hyperstate as hs
from hyperqsdc.adversary import DefenseConfig, EveKind, EveStrategy, resend
from hyperqsdc.draws import DrawSource
from hyperqsdc.hyperstate import (
    ALL_AXES,
    AXIS,
    BELL_BASIS,
    Dof,
    Photon,
    correlation_error_probs,
    outcome_probs,
)
from hyperqsdc.protocol import ChannelParams, transit_draws

# every ascending set of tensor axes a kernel may measure
AXES_SETS = [
    tuple(a for a in ALL_AXES if mask >> a & 1) for mask in range(1, 16)
]


class FixedUniforms:
    """Bit generator stand-in whose ``random_raw`` hands out preset uniforms in order.

    It hands them out as the 64-bit words ``DrawSource`` turns into them,
    ``(word >> 11) * 2**-53``: exactly, as every preset is a multiple of 2**-53.
    """

    def __init__(self, values):
        self.values = list(values)

    def random_raw(self, size):
        return np.array([int(self.values.pop(0) * 2**53) << 11 for _ in range(size)],
                        dtype=np.uint64)


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


def measure_rows(states, axes, u, x, collapse=True):
    """``measure_table`` of every row of ``states`` through the identity index: (outcomes, the
    collapsed block), or (outcomes, None) when ``collapse`` is false."""
    outcomes, collapsed = hs.measure_table(states, np.arange(len(states)), axes, u, x, collapse)
    return outcomes, None if collapsed is None else collapsed[0][collapsed[1]]


def bell_rows(states, u):
    """``bell_labels_table`` of every row of ``states`` through the identity index."""
    return hs.bell_labels_table(states, np.arange(len(states)), u)


def in_z(n: int, n_axes: int = 1) -> np.ndarray:
    """The X mask of n rows measured in Z on every axis."""
    return np.zeros((n, n_axes), dtype=bool)


class TestBlockEqualsRows:
    @given(blocks(), st.sampled_from(AXES_SETS), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_measure(self, block, axes, rotated):
        states, x, u = block
        x = x[:, : len(axes)] if rotated else in_z(len(states), len(axes))
        outcomes, post = measure_rows(states, axes, u, x)
        for k in range(len(states)):
            o_k, post_k = measure_rows(states[k : k + 1], axes, u[k : k + 1], x[k : k + 1])
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

    @given(blocks(), st.sampled_from(["encode", "pauli"]))
    @settings(max_examples=60, deadline=None)
    def test_encode_and_pauli(self, block, kernel):
        states, _, u = block
        codes = (16 * u).astype(np.intp)
        out = getattr(hs, kernel)(states, codes)
        _assert_same_rows(out, [getattr(hs, kernel)(states[k : k + 1], codes[k : k + 1])
                                for k in range(len(states))])

    @given(blocks())
    @settings(max_examples=60, deadline=None)
    def test_bell_labels(self, block):
        states, _, u = block
        labels = bell_rows(states, u)
        assert [bell_rows(states[k : k + 1], u[k : k + 1])[0] for k in range(len(states))] == \
            labels.tolist()

    @given(blocks())
    @settings(max_examples=40, deadline=None)
    def test_correlation_error_probs(self, block):
        states, x, _ = block
        probs = correlation_error_probs(states, x[:, :2])
        _assert_same_rows(probs, [correlation_error_probs(states[k : k + 1], x[k : k + 1, :2])
                                  for k in range(len(states))])

    @given(blocks())
    @settings(max_examples=40, deadline=None)
    def test_encode_is_the_ket_by_ket_oracle(self, block):
        # each coding op only moves an amplitude and flips its sign, so the
        # two 2x2 products give exactly the oracle's amplitudes
        states, x, _ = block
        codes = (8 * x[:, 0] + 4 * x[:, 1] + 2 * x[:, 2] + x[:, 3]).astype(np.intp)
        out = hs.encode(states, codes)
        for k, code in enumerate(codes.tolist()):
            op = hs.EncodingOp.from_code(code)
            np.testing.assert_array_equal(out[k], oracles.apply_op_16(states[k], op.i, op.j))

    @given(blocks())
    @settings(max_examples=40, deadline=None)
    def test_born_weights_are_numpys_complex_product(self, block):
        # bitwise the real part of conj(a) * a, which numpy may form with
        # fused multiply-adds, unlike re * re + im * im
        states, _, _ = block
        assert np.array_equal(hs._born(states, ALL_AXES), (states.conj() * states).real)

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
        source = DrawSource([FixedUniforms(np.concatenate(draws))])
        drawn = transit_draws(source, [0], [0, n], ChannelParams(), strategy, DefenseConfig()).eve
        table, index, codes = resend(states, strategy, *drawn, np.arange(n))
        for k in range(n):
            table_k, index_k, codes_k = resend(states[k : k + 1], strategy, x[k : k + 1, : len(dofs)],
                                               u[k : k + 1], np.arange(1))
            np.testing.assert_allclose(table[index[k]], table_k[index_k[0]], rtol=0, atol=1e-12)
            np.testing.assert_array_equal(codes[k], codes_k[0])


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
    """The basis change as one per-row generic 2x2 product per measured axis, in ascending order."""
    for m, axis in enumerate(axes):
        states = oracles.apply_2x2(states, axis, TO_BASIS[x[:, m].astype(np.intp)])
    return states


def assert_basis_change_exact(states, axes, x):
    expected = generic_basis_change(states, axes, x)
    assert np.array_equal(hs._rotate(states, axes, x), expected)
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
        # encode, pauli and bell_labels_table too: no kernel writes the block it reads
        states, x, u = block
        x = x_mask(kind, x, axes)
        codes = (x[:, 0] * 8 + u.argsort() % 8).astype(np.intp)
        before = states.tobytes()
        measure_rows(states, axes, u, x, collapse=collapse)
        outcome_probs(states, axes, x)
        hs.encode(states, codes)
        hs.pauli(states, codes)
        bell_rows(states, u)
        assert states.tobytes() == before


@st.composite
def tables(draw, max_rows=12, max_pairs=60):
    """(table, each pair's row, x mask over all four axes per pair, uniforms per pair).

    Few distinct rows, half of them hyper-Bell states with exact zeros, and
    up to ``max_pairs`` pairs that share them.
    """
    table, _, _ = draw(blocks(max_rows))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    table[: len(table) // 2] = BELL_BASIS[rng.integers(16, size=len(table) // 2)]
    n = draw(st.integers(min_value=0, max_value=max_pairs))
    return table, rng.integers(len(table), size=n), rng.random((n, 4)) < 0.5, rng.random(n)


class TestStateTables:
    """Each table function on a deduplicated index equals the same function on the gathered
    rows ``table[index]`` with the identity index, bitwise."""

    @given(tables(), st.sampled_from(AXES_SETS), st.sampled_from(MASK_KINDS))
    @settings(max_examples=80, deadline=None)
    def test_measure_table(self, pairs, axes, kind):
        table, index, x, u = pairs
        x = x_mask(kind, x, axes)
        outcomes, post = measure_rows(table[index], axes, u, x)
        got, (states, new_index) = hs.measure_table(table, index, axes, u, x)
        assert np.array_equal(got, outcomes)
        assert np.array_equal(states[new_index], post)
        # one collapsed row per distinct (row, X pattern, outcome) of the pairs
        patterns = x @ (1 << np.arange(len(axes)))
        assert len(states) == len(set(zip(index.tolist(), patterns.tolist(), got.tolist())))
        read, none = hs.measure_table(table, index, axes, u, x, collapse=False)
        assert np.array_equal(read, outcomes) and none is None

    @pytest.mark.parametrize("n_axes", [1, 2, 3, 4])
    def test_pattern_keys_are_the_mask_times_big_endian_weights(self, n_axes, monkeypatch):
        # the keys are shifted together in bytes; the integer matmul is the reference
        rng = np.random.default_rng(n_axes)
        n = 3000
        index = rng.integers(6, size=n)
        x = rng.random((n, n_axes)) < 0.5
        keys = []
        combos = hs._combos

        def recording(table, index, choice, n_choices):
            keys.append(choice)
            return combos(table, index, choice, n_choices)

        monkeypatch.setattr(hs, "_combos", recording)
        hs.measure_table(BELL_BASIS[:6], index, tuple(range(n_axes)), rng.random(n), x,
                         collapse=False)
        [got] = keys
        assert got.dtype == np.uint8  # one byte a pair
        assert np.array_equal(got, x @ (1 << np.arange(n_axes))[::-1])

    @given(tables())
    @settings(max_examples=40, deadline=None)
    def test_bell_labels_and_encode(self, pairs):
        table, index, x, u = pairs
        codes = (8 * x[:, 0] + 4 * x[:, 1] + 2 * x[:, 2] + x[:, 3]).astype(np.intp)
        assert np.array_equal(hs.bell_labels_table(table, index, u), bell_rows(table[index], u))
        states, new_index = hs.map_table(table, index, codes, 16, hs.encode)
        assert np.array_equal(states[new_index], hs.encode(table[index], codes))
        # one mapped row per distinct (row, op) of the pairs
        assert len(states) == len(set(zip(index.tolist(), codes.tolist())))

    @given(st.lists(st.integers(min_value=0, max_value=40)), st.integers(min_value=0, max_value=9))
    def test_distinct_is_numpys_unique(self, keys, spare):
        keys = np.array(keys, dtype=np.intp)
        values, inverse = hs.distinct(keys, max(keys, default=-1) + 1 + spare)
        expected_values, expected_inverse = np.unique(keys, return_inverse=True)
        assert values.tolist() == expected_values.tolist()
        assert inverse.tolist() == expected_inverse.ravel().tolist()

    @pytest.mark.parametrize("bad", [-1, 2])
    def test_table_rows_out_of_range_are_rejected(self, bad):
        # a negative row must not wrap around to the end of the table
        table, index = BELL_BASIS[:2], np.array([0, bad])
        with pytest.raises(IndexError):
            hs.measure_table(table, index, (0,), np.full(2, 0.5), np.zeros((2, 1), dtype=bool))
        with pytest.raises(IndexError):
            hs.bell_labels_table(table, index, np.full(2, 0.5))
        with pytest.raises(IndexError):
            hs.map_table(table, index, np.zeros(2, dtype=np.intp), 16, hs.encode)


@st.composite
def indexed_cdfs(draw, max_columns=6, max_pairs=40):
    """(outcome probabilities, their normalized CDF per column, each pair's column, uniforms).

    About half the outcomes have probability 0, pairs repeat columns, and the
    uniforms include 0, the largest float below 1 and exact CDF values.
    """
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    n_out = draw(st.sampled_from([2, 4, 8, 16]))
    n_columns = draw(st.integers(min_value=1, max_value=max_columns))
    probs = rng.random((n_out, n_columns)) * (rng.random((n_out, n_columns)) < 0.5)
    probs[rng.integers(n_out, size=n_columns), np.arange(n_columns)] += 0.5  # none all zero
    cdf = probs.cumsum(axis=0)
    cdf /= cdf[-1]  # as ``_read`` normalizes: the last positive outcome reaches exactly 1.0
    n = draw(st.integers(min_value=0, max_value=max_pairs))
    of = rng.integers(n_columns, size=n)
    u, kind = rng.random(n), rng.integers(4, size=n)
    u[kind == 1] = 0.0
    u[kind == 2] = LAST_UNIFORM
    ties = (kind == 3).nonzero()[0]
    u[ties] = np.minimum(cdf[rng.integers(n_out, size=len(ties)), of[ties]], LAST_UNIFORM)
    return probs, cdf, of, u


class TestIndexedDraw:
    """``draw`` through a column index equals the draw from the gathered (outcomes, pairs) CDF."""

    @given(indexed_cdfs())
    @settings(max_examples=200, deadline=None)
    def test_equals_the_gathered_cdf(self, drawn):
        probs, cdf, of, u = drawn
        got = hs.draw(cdf, u, of)
        assert got.dtype == np.intp
        assert np.array_equal(got, (cdf.take(of, axis=1)[:-1] <= u).sum(axis=0))
        assert np.array_equal(got, hs.draw(cdf.take(of, axis=1), u, np.arange(len(of))))
        assert (probs[got, of] > 0).all()  # an outcome of probability 0 is never drawn

    @pytest.mark.parametrize("u", [[1.0], [-0.25], [np.nan], [0.5, 0.5]])
    def test_rejects_bad_uniforms(self, u):
        cdf = np.array([[0.5, 1.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="uniform"):
            hs.draw(cdf, u, np.array([1]))

    def test_rejects_outcome_counts_not_a_power_of_two(self):
        cdf = np.array([[0.25], [0.5], [1.0]])
        with pytest.raises(ValueError, match="power-of-two"):
            hs.draw(cdf, [0.5], np.array([0]))

    @pytest.mark.parametrize("call", [
        lambda table, index, u, x: hs.bell_labels_table(table, index, u),
        lambda table, index, u, x: hs.measure_table(table, index, ALL_AXES, u, x, collapse=False),
        lambda table, index, u, x: hs.measure_table(table, index, ALL_AXES, u, x),
    ], ids=["bell_labels_table", "measure_table_without_collapse", "measure_table"])
    def test_table_draws_build_no_cdf_per_pair(self, call):
        # an (outcomes, pairs) CDF of 16 outcomes alone would take 128 B per pair
        n = 20_000
        table, index = BELL_BASIS[:1], np.zeros(n, dtype=np.intp)
        rng = np.random.default_rng(12)
        u, x = rng.random(n), rng.random((n, 4)) < 0.5
        call(table, index, u, x)  # a first call may allocate for good
        tracemalloc.start()
        try:
            call(table, index, u, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * n, f"{peak / n:.1f} B per pair"


def _large_block(seed: int, n: int) -> tuple:
    """(states, x mask over all four axes, uniforms, op codes) for n rows, 16 of them hyper-Bell."""
    rng = np.random.default_rng(seed)
    states = rng.normal(size=(n, 16)) + 1j * rng.normal(size=(n, 16))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    states[:16] = BELL_BASIS  # rows with exact zeros
    return states, rng.random((n, 4)) < 0.5, rng.random(n), rng.integers(16, size=n)


class TestCallSize:
    """A row's result does not depend on how many rows share its kernel call, bitwise.

    Kernels take every row they are given in one call, so a call may hold
    thousands of rows.
    """

    # parts of 1, 16, 1007, 1024 and 952 rows: one of them as large as CHUNK_ROWS
    CUTS = (1, 17, 1024, 2048, 3000)

    @pytest.mark.parametrize("kernel", [
        lambda states, x, u, codes: measure_rows(states, ALL_AXES, u, x),
        lambda states, x, u, codes: (hs.encode(states, codes),),
        lambda states, x, u, codes: (hs.pauli(states, codes),),
        lambda states, x, u, codes: (bell_rows(states, u),),
    ], ids=["measure", "encode", "pauli", "bell_labels"])
    def test_one_call_equals_calls_on_parts(self, kernel):
        block = _large_block(8, self.CUTS[-1])
        whole = kernel(*block)
        parts = [kernel(*(a[start:stop] for a in block))
                 for start, stop in zip((0,) + self.CUTS, self.CUTS)]
        for m, got in enumerate(whole):
            assert np.array_equal(got, np.concatenate([part[m] for part in parts]))

    def test_table_functions_on_more_distinct_rows_than_a_chunk(self):
        table, _, _, _ = _large_block(9, 3000)
        rng = np.random.default_rng(9)
        index = rng.integers(len(table), size=6000)
        x, u, codes = rng.random((6000, 4)) < 0.5, rng.random(6000), rng.integers(16, size=6000)
        outcomes, post = measure_rows(table[index], ALL_AXES, u, x)
        got, (states, new_index) = hs.measure_table(table, index, ALL_AXES, u, x)
        assert np.array_equal(got, outcomes) and np.array_equal(states[new_index], post)
        assert np.array_equal(hs.bell_labels_table(table, index, u), bell_rows(table[index], u))
        states, new_index = hs.map_table(table, index, codes, 16, hs.encode)
        assert np.array_equal(states[new_index], hs.encode(table[index], codes))


@pytest.mark.parametrize("kernel, ops", [
    (hs.encode, [oracles.DOF_OP4[k] for k in (1, 2, 3, 4)]),
    (hs.pauli, [oracles.I2, oracles.PX, oracles.PY, oracles.PZ]),
], ids=["encode", "pauli"])
def test_op_gather_equals_the_generic_products(kernel, ops):
    # one gather times a phase of 1, -1, i or -i per amplitude is the pol op
    # then the spa op as complex 2x2 products on photon A, for every code;
    # array_equal, as the products may leave a zero of the other sign
    states, _, _, _ = _large_block(10, 400)
    codes = np.arange(len(states)) % 16
    ops = np.stack(ops)
    expected = oracles.apply_2x2(oracles.apply_2x2(states, 0, ops[codes >> 2]), 2, ops[codes & 3])
    assert np.array_equal(kernel(states, codes), expected)
    assert np.array_equal(kernel(states, codes.astype(np.int8)), expected)


class TestJointDraw:
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
            bit, mid = measure_rows(states, axes[:1], u_pol, x[:, :1])
            assert bit[0] == pol
            cond = outcome_probs(mid, axes[1:], x[:, 1:2])[0]
            np.testing.assert_allclose(joint[2 * pol : 2 * pol + 2], p_pol * cond, rtol=0, atol=1e-12)


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
        [[p_pol, p_spa]] = correlation_error_probs(state[None], np.array([[basis == "X"] * 2]))
        for got, factor in ((p_pol, _dof_factor(p_name, i)), (p_spa, _dof_factor(s_name, j))):
            expected = sum(oracles.joint_outcome_prob(factor, basis, a, 1 - a) for a in (0, 1))
            assert abs(got - expected) <= 1e-12

    @given(coded_pairs)
    @settings(max_examples=80, deadline=None)
    def test_bell_outcomes(self, pair):
        p_name, s_name, i, j = pair
        state = oracles.apply_op_16(oracles.hyper_bell_16(p_name, s_name), i, j)
        probs = outcome_probs(state[None] @ BELL_BASIS.conj().T, ALL_AXES, in_z(1, 4))[0]
        pol = oracles.bell_outcome_probs(_dof_factor(p_name, i))
        spa = oracles.bell_outcome_probs(_dof_factor(s_name, j))
        for k in range(16):
            expected = pol[BELL_NAMES[k >> 2]] * spa[BELL_NAMES[k & 3]]
            assert abs(probs[k] - expected) <= 1e-12

    @given(st.sampled_from([(0,), (2,), (0, 2)]),
           st.lists(st.tuples(coded_pairs, st.sampled_from("ZX"), st.sampled_from("ZX")),
                    min_size=1, max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_collapse_matches_projection(self, axes, rows):
        # photon A's pol (axis 0) and spa (axis 2) read jointly, as Eve reads them, and each
        # alone; each row in its own Z/X pattern, once per outcome.  Each outcome of one
        # photon of a Bell pair has probability 1/2, so a mid-bucket uniform draws it.
        n_out = 1 << len(axes)
        states, x, expected = [], [], []
        for (p_name, s_name, i, j), pol_basis, spa_basis in rows:
            factors = {0: (_dof_factor(p_name, i), pol_basis),
                       2: (_dof_factor(s_name, j), spa_basis)}
            for o in range(n_out):
                bits = {a: o >> (len(axes) - 1 - m) & 1 for m, a in enumerate(axes)}
                (p_pol, pol), (p_spa, spa) = (
                    oracles.project_qubit(factor, "a", basis, bits[a]) if a in bits
                    else (1.0, factor) for a, (factor, basis) in factors.items())
                assert abs(p_pol * p_spa - 1 / n_out) <= 1e-12
                states.append(oracles.apply_op_16(oracles.hyper_bell_16(p_name, s_name), i, j))
                x.append([factors[a][1] == "X" for a in axes])
                expected.append(np.kron(pol, spa))
        u = (np.arange(len(states)) % n_out + 0.5) / n_out
        bits, post = measure_rows(np.array(states), axes, u, np.array(x))
        assert bits.tolist() == (np.arange(len(states)) % n_out).tolist()
        np.testing.assert_allclose(post, np.array(expected), rtol=0, atol=1e-12)
        # a call on no rows collapses none
        bits, post = measure_rows(np.empty((0, 16), dtype=complex), axes, np.empty(0),
                                  in_z(0, len(axes)))
        assert bits.shape == (0,) and post.shape == (0, 16)

    @given(blocks(), st.sampled_from(AXES_SETS))
    @settings(max_examples=60, deadline=None)
    def test_collapse_equals_the_reference_projector(self, block, axes):
        # the ket product is the zeroed, divided and turned-back row by value; its input
        # stays.  Each row is projected twice, the second time in reverse row order
        states, x, u = block
        x = x[:, : len(axes)]
        work, raw, cdf = hs._read(states, axes, x)
        of = np.concatenate([np.arange(len(states)), np.arange(len(states))[::-1]])
        outcomes = hs.draw(cdf, np.concatenate([u, u]), of)
        probs = raw[of, outcomes]
        before = work.copy()
        got = hs._project(work, of, probs, axes, outcomes, x[of])
        assert (got == oracles.project_rows(work[of], probs, axes, outcomes, x[of])).all()
        assert work.tobytes() == before.tobytes()


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
            bits, post = measure_rows(states, (axis,), np.array([u]), in_z(1))
            assert bits[0] == expected
            np.testing.assert_array_equal(post[0], states[0])
            assert outcome_probs(states, (axis,), in_z(1))[0].tolist() == [1 - expected, expected]

    def test_total_short_of_one_never_draws_a_zero_bucket(self):
        # outcome 1 of axis 0 has probability exactly 0 and the row's total is 1 - 1e-15
        states = np.array([_ket(3, 1.0 - 1e-15)])
        bits, post = measure_rows(states, (0,), np.array([LAST_UNIFORM]), in_z(1))
        assert bits[0] == 0
        assert abs(np.linalg.norm(post[0]) - 1.0) <= 1e-12

    def test_cdf_edge_lands_on_last_positive_outcome(self):
        # joint outcomes of axes (0, 1): 0.5, 0.5 - 1e-15, 0, 0
        amps = _ket(0, 0.5) + _ket(4, 0.5 - 1e-15)
        bits, _ = measure_rows(amps[None], (0, 1), np.array([LAST_UNIFORM]), in_z(1, 2))
        assert bits[0] == 1

    def test_near_zero_probability_snaps_to_zero(self):
        amps = _ket(0, 1.0 - 1e-13) + _ket(8, 1e-13)
        assert outcome_probs(amps[None], (0,), in_z(1))[0].tolist() == [1.0, 0.0]
        for u in (0.0, 1e-14, 0.5, LAST_UNIFORM):
            bits, post = measure_rows(amps[None], (0,), np.array([u]), in_z(1))
            assert bits[0] == 0
            assert post[0][8] == 0.0

    def test_x_basis_certain_outcome(self):
        # |+> on pol_a: X outcome 0 with probability exactly 1 after snapping
        plus = (_ket(0) + _ket(8)) / np.sqrt(2)
        assert outcome_probs(plus[None], (0,), np.array([[True]]))[0].tolist() == [1.0, 0.0]
        bits, post = measure_rows(plus[None], (0,), np.array([LAST_UNIFORM]), np.array([[True]]))
        assert bits[0] == 0
        np.testing.assert_allclose(post[0], plus, rtol=0, atol=1e-12)

    def test_all_zero_row_is_rejected(self):
        with pytest.raises(ValueError, match="all zero"):
            measure_rows(np.zeros((1, 16), dtype=complex), (0,), np.array([0.5]), in_z(1))

    @pytest.mark.parametrize("head", [[np.nan], [np.inf], [np.nan, 1.0], [np.inf, 1.0]],
                             ids=["nan", "inf", "nan-and-one", "inf-and-one"])
    @pytest.mark.parametrize("kernel", [
        lambda states: outcome_probs(states, (0,), in_z(len(states))),
        lambda states: correlation_error_probs(states, np.array([[True, False]])),
        lambda states: measure_rows(states, (0,), np.array([0.5]), in_z(1)),
        lambda states: bell_rows(states, np.array([0.5])),
        lambda states: bell_rows(hs.encode(states, np.array([15])), np.array([0.5])),
        lambda states: bell_rows(hs.pauli(states, np.array([15])), np.array([0.5])),
    ], ids=["outcome_probs", "correlation_error_probs", "measure", "bell_labels",
            "encode_then_bell_labels", "pauli_then_bell_labels"])
    def test_non_finite_row_is_rejected(self, kernel, head):
        # with the ValueError, not after a numpy RuntimeWarning on the way
        states = np.zeros((1, 16), dtype=complex)
        states[0, : len(head)] = head
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                kernel(states)


class TestUniforms:
    # |0000>: outcome 1 of axis 0 has probability 0, so a uniform of 1.0 or
    # more would pick it; every Bell label but 0 has probability 0 on row 0
    @pytest.mark.parametrize("u", [1.0, 1.5, np.inf, -0.25, -np.inf, np.nan])
    @pytest.mark.parametrize("kernel", [
        lambda u: measure_rows(np.array([_ket(0)]), (0,), [u], in_z(1)),
        lambda u: measure_rows(np.array([_ket(0)]), (0,), [u], in_z(1), collapse=False),
        lambda u: bell_rows(BELL_BASIS[:1], [u]),
        lambda u: hs.measure_table(np.array([_ket(0)]), np.zeros(1, dtype=np.intp), (0,), [u],
                                   np.zeros((1, 1), dtype=bool)),
        lambda u: hs.bell_labels_table(BELL_BASIS[:1], np.zeros(1, dtype=np.intp), [u]),
    ], ids=["measure", "measure_without_collapse", "bell_labels", "measure_table",
            "bell_labels_table"])
    def test_rejects_uniform_outside_unit_interval(self, kernel, u):
        with pytest.raises(ValueError, match=r"uniforms must lie in \[0, 1\)"):
            kernel(u)

    @pytest.mark.parametrize("n_uniforms", [0, 1, 2, 4])
    @pytest.mark.parametrize("kernel", [
        lambda u: measure_rows(np.tile(_ket(0), (3, 1)), (0,), u, in_z(3)),
        lambda u: bell_rows(np.tile(BELL_BASIS[0], (3, 1)), u),
        lambda u: hs.measure_table(np.array([_ket(0)]), np.zeros(3, dtype=np.intp), (0,), u,
                                   np.zeros((3, 1), dtype=bool)),
        lambda u: hs.bell_labels_table(BELL_BASIS[:1], np.zeros(3, dtype=np.intp), u),
    ], ids=["measure", "bell_labels", "measure_table", "bell_labels_table"])
    def test_needs_one_uniform_per_row(self, kernel, n_uniforms):
        # one uniform is not spread over the three rows
        with pytest.raises(ValueError, match="one uniform per row"):
            kernel(np.full(n_uniforms, 0.5))


@pytest.mark.parametrize("kernel", [hs.encode, hs.pauli], ids=["encode", "pauli"])
class TestOpCodes:
    @pytest.mark.parametrize("code", [-1, 16])
    def test_op_codes_out_of_range_are_rejected(self, kernel, code):
        with pytest.raises(IndexError, match="op codes"):
            kernel(np.tile(BELL_BASIS[0], (2, 1)), np.array([0, code]))

    @pytest.mark.parametrize("n_codes", [0, 1, 2, 4])
    def test_needs_one_op_code_per_row(self, kernel, n_codes):
        # one code is not spread over the three rows
        with pytest.raises(ValueError, match="one op code per row"):
            kernel(np.tile(BELL_BASIS[0], (3, 1)), np.zeros(n_codes, dtype=np.intp))
