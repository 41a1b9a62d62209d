"""Exact 16-dimensional state mechanics for hyperentangled photon pairs.

A pair of photons A and B is entangled in two degrees of freedom at once:
polarization (H or V per photon) and spatial mode (a1/a2 for photon A,
b1/b2 for photon B).  The joint pure state therefore lives in a
16-dimensional Hilbert space.  Amplitudes are kept in a fixed big-endian
order over the four binary labels

    index = 8*pol_a + 4*pol_b + 2*spa_a + spa_b

with H = 0, V = 1 for polarization and first mode = 0, second mode = 1 for
the spatial label.  This order is load-bearing: block rows, the
hyper-Bell basis matrix and the encoding unitaries all use it.

A block of pairs is one ``(N, 16)`` complex array, row k holding pair k; it
can be viewed as ``(N, 2, 2, 2, 2)`` with tensor axes (pol_a, pol_b, spa_a,
spa_b).  Row-wise kernels do the state work.  A measurement takes three
steps: the normalized CDF over the joint outcomes of some axes, ``draw``
(one inverse-CDF draw per pair), and the collapse onto the outcomes drawn:
the drawn outcome's amplitudes, normalized, times its basis ket on each
measured axis.  The Z-to-X basis change in front of a draw is a Hadamard
butterfly on the rows measured in X on each axis.  Dense coding (``encode``) and channel
noise (``pauli``) name by a code 4 * pol + spa a single-DOF op for photon
A's polarization axis and one for its spatial axis: a signed permutation of
the amplitudes (phases 1, -1, i, -i), one gather per block.  The hyper-Bell
readout is a fixed sparse map: each amplitude is a four-term sum.

Pairs that share a state share a row: a state table is a (T, 16) array of
states plus one row index per pair, and its owner keeps each value once.
The pairs' state operations go through three table functions:
``measure_table`` (per-axis Z/X measurement), ``bell_labels_table`` (the
complete hyper-Bell analysis) and ``map_table`` (with ``encode`` or
``pauli``).  Each gathers the distinct (row, discrete choice) combos of the
pairs, makes one kernel call on them, then draws per pair.  Every kernel is
row-wise, so a pair's outcome and state are bitwise those of its own row.

States are rays, not vectors: two states that differ by a global phase are
physically identical.  All operations here are pure functions: a kernel
returns new arrays and never writes its input.  Anything stochastic takes
explicit uniforms, so callers own reproducibility.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

DIM = 16

# Equality / normalization tolerance for exact linear-algebra facts.
ATOL = 1e-12


class Photon(Enum):
    """Which photon of the pair an operation addresses."""

    A = "A"
    B = "B"


class Dof(Enum):
    """Degree of freedom carried by each photon."""

    POL = "pol"
    SPA = "spa"


@dataclass(frozen=True)
class EncodingOp:
    """Local unitary U_ij on photon A: i acts on polarization, j on spatial mode.

    Index meaning per DOF: 1 identity, 2 phase flip, 3 bit flip,
    4 bit flip then phase flip.
    """

    i: int
    j: int

    def __post_init__(self) -> None:
        if self.i not in (1, 2, 3, 4) or self.j not in (1, 2, 3, 4):
            raise ValueError(f"encoding indices must be in 1..4, got ({self.i}, {self.j})")

    @property
    def code(self) -> int:
        """Op code 4*(i-1) + (j-1) in 0..15, the form blocks store per row."""
        return 4 * (self.i - 1) + (self.j - 1)

    @staticmethod
    def from_code(code: int) -> "EncodingOp":
        return EncodingOp(code // 4 + 1, code % 4 + 1)


@dataclass(frozen=True)
class SourceParams:
    """Spatial-mode imbalance r and relative phase phi of the pair source.

    r = 1, phi = 0 is the ideal balanced source.
    """

    r: float
    phi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.r) and self.r >= 0.0):
            raise ValueError(f"source amplitude ratio r must be finite and >= 0, got {self.r}")
        if not math.isfinite(self.phi):
            raise ValueError(f"source phase phi must be finite, got {self.phi}")

    @cached_property
    def amplitudes(self) -> np.ndarray:
        """The 16 amplitudes of the emitted pair, for filling a block; read-only.

        The polarization part is always the balanced (|HH> + |VV>) form; the
        spatial part carries amplitude r*exp(i*phi) on the second mode pair.
        """
        # scaled so that the larger spatial amplitude is 1: the norm cannot
        # overflow for a huge r, and r <= 1 keeps the unscaled amplitudes
        big = max(1.0, self.r)
        pol = np.array([1, 0, 0, 1], dtype=complex)
        spa = np.array([1 / big, 0, 0, self.r / big * cmath.exp(1j * self.phi)], dtype=complex)
        vec = np.outer(pol, spa).ravel()  # pol (x) spa in the normative order
        vec /= np.linalg.norm(vec)
        vec.setflags(write=False)
        return vec


# ---------------------------------------------------------------------------
# fixed matrices
# ---------------------------------------------------------------------------

_I2 = np.eye(2, dtype=complex)
_PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
_PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# Identity then Pauli X, Y, Z: index 0 is "no error" for channel noise.
PAULIS = np.stack([_I2, _PAULI_X, _PAULI_Y, _PAULI_Z])

# Single-DOF encoding unitaries by index - 1: identity, phase flip, bit flip, both.
_DOF_OPS = np.stack([_I2, _PAULI_Z, _PAULI_X, _PAULI_X @ _PAULI_Z])

# Tensor axes in the normative order (pol_a, pol_b, spa_a, spa_b).
AXIS = {
    (Photon.A, Dof.POL): 0,
    (Photon.B, Dof.POL): 1,
    (Photon.A, Dof.SPA): 2,
    (Photon.B, Dof.SPA): 3,
}
ALL_AXES = (0, 1, 2, 3)

_SQ2 = 1.0 / math.sqrt(2)

# The four Bell states of one DOF, phi+, phi-, psi+ and psi-, as 4-vectors
# indexed by 2*bit_a + bit_b.
_BELL_VEC = (
    np.array([_SQ2, 0, 0, _SQ2], dtype=complex),
    np.array([_SQ2, 0, 0, -_SQ2], dtype=complex),
    np.array([0, _SQ2, _SQ2, 0], dtype=complex),
    np.array([0, _SQ2, -_SQ2, 0], dtype=complex),
)

# Row k = 4*p + s holds the hyper-Bell state |p>_pol (x) |s>_spa, whose flat
# label k is also the op code that takes row 0 there.  The kron of the two
# 4-vectors lands exactly on the normative index order.
BELL_BASIS = np.array([np.kron(_BELL_VEC[p], _BELL_VEC[s]) for p in range(4) for s in range(4)])

# For each ascending set of measured axes: the amplitude indices of each
# joint outcome, big-endian over those axes, ascending (one row of
# 16 >> len(axes) per outcome), and each amplitude's place in its row.
_OUTCOME_AMPS = {
    axes: np.argsort([sum(((k >> (3 - a)) & 1) << (len(axes) - 1 - m) for m, a in enumerate(axes))
                      for k in range(DIM)], kind="stable").reshape(1 << len(axes), -1)
    for axes in (tuple(a for a in ALL_AXES if mask >> (3 - a) & 1) for mask in range(1, DIM))
}
_PLACE = {axes: np.argsort(amps.ravel()) % amps.shape[1] for axes, amps in _OUTCOME_AMPS.items()}

# The kets [x, b] of outcome b of one axis read in Z or X: (1, 0), (0, 1),
# s(1, 1) and s(1, -1), s = 1/sqrt(2).  _KET_FACTORS[axis][x, b] holds the
# entry of each amplitude's bit of ``axis``, twice: for its real and imaginary part.
_KETS = np.array([[[1.0, 0.0], [0.0, 1.0]], [[_SQ2, _SQ2], [_SQ2, -_SQ2]]])
_KET_FACTORS = [np.repeat(_KETS[..., np.arange(DIM) >> (3 - axis) & 1], 2, axis=2)
                for axis in ALL_AXES]

# Every hyper-Bell state has four nonzero amplitudes, so the amplitude of
# label k in a state is the sum over m of the state's amplitude
# _BELL_SUPPORT[m, k] times the real weight w[m, k]; _BELL_WEIGHTS[m] holds
# w[m, k] twice, for the real and the imaginary part of amplitude k.
_BELL_SUPPORT = np.array([np.flatnonzero(row) for row in BELL_BASIS]).T.copy()
_BELL_WEIGHTS = np.repeat(np.take_along_axis(BELL_BASIS.real, _BELL_SUPPORT.T, axis=1).T, 2,
                          axis=1)

# ---------------------------------------------------------------------------
# block kernels
# ---------------------------------------------------------------------------


def _rotate(states: np.ndarray, axes: tuple, x) -> np.ndarray:
    # Z-to-X basis change of the rows measured in X on each of ``axes``, in
    # ascending order; a row measured in Z is left as it is.  ``states``
    # itself when no row is measured in X, else a new block.  The Hadamard
    # is a butterfly, bitwise its complex 2x2 product.
    if x is None or not x.any():
        return states
    states = states.copy()
    for m, axis in enumerate(axes):
        rows = x[:, m].nonzero()[0]
        halves = states[rows].view(float).reshape(len(rows), 1 << axis, 2, 16 >> axis)
        t0, t1 = _SQ2 * halves[:, :, :1], _SQ2 * halves[:, :, 1:]
        states[rows] = np.concatenate([t0 + t1, t0 - t1], axis=2).view(complex).reshape(-1, DIM)
    return states


def _born(states: np.ndarray, axes: tuple) -> np.ndarray:
    # Unsnapped probabilities of the joint outcomes of the ascending
    # ``axes``: |a|**2 as numpy forms conj(a) * a, summed over each other
    # axis in turn, the last first.
    square = np.conjugate(states)
    square *= states
    probs = square.real.reshape(-1, 2, 2, 2, 2)
    for axis in reversed(ALL_AXES):
        if axis not in axes:
            probs = probs.sum(axis=1 + axis)
    probs = probs.reshape(len(states), 1 << len(axes))
    # a NaN or infinite amplitude makes its row's weights non-finite, and
    # snapping would pass an infinite weight off as a certain outcome
    if not np.isfinite(probs).all():
        raise ValueError("state rows hold non-finite amplitudes")
    return probs


def _snap(probs: np.ndarray) -> np.ndarray:
    # in place: probabilities within ATOL of 0 or 1 become exactly 0 or 1
    np.copyto(probs, 0.0, where=probs <= ATOL)
    np.copyto(probs, 1.0, where=probs >= 1.0 - ATOL)
    return probs


# The kernels that call _born run under np.errstate(invalid="ignore"): a
# non-finite amplitude must end in _born's ValueError, not in numpy's
# "invalid value" warning on the way there.


@np.errstate(invalid="ignore")
def outcome_probs(states: np.ndarray, axes: tuple, x: np.ndarray) -> np.ndarray:
    """Exact per-row probabilities of the joint outcomes of tensor ``axes``.

    ``axes`` is ascending; outcome index o is big-endian over them (bit 1 =
    V / second mode, or minus in X).  ``x`` is an (N, len(axes)) bool mask:
    True measures that axis of that row in the X basis.
    Probabilities within ``ATOL`` of 0 or 1 are returned as exactly 0 or 1.
    Returns an (N, 2**len(axes)) array.
    """
    return _snap(_born(_rotate(states, axes, x), axes))


def _read(states: np.ndarray, axes: tuple, x) -> tuple:
    # The Born side of a measurement of tensor ``axes``: the rows in their
    # measurement bases (``states`` itself when no row is measured in X,
    # else a new block), their unsnapped joint-outcome probabilities and the
    # normalized CDF that ``draw`` reads: entry [o, k] sums row k's snapped
    # probabilities of the outcomes up to o over their total, so the last
    # outcome of positive probability reaches exactly 1.0 however far
    # rounding leaves the total from 1.
    work = _rotate(states, axes, x)
    raw = _born(work, axes)
    # one row per outcome, so that each running sum adds two contiguous rows
    cdf = _snap(raw.T.copy())
    for o in range(1, len(cdf)):
        np.add(cdf[o - 1], cdf[o], out=cdf[o])
    total = cdf[-1].copy()
    if not (total > 0.0).all():
        raise ValueError("cannot measure a row whose outcome probabilities are all zero")
    # a zero-probability outcome's CDF stays equal to its predecessor's
    cdf /= total
    return work, raw, cdf


def draw(cdf: np.ndarray, u, of: np.ndarray) -> np.ndarray:
    """The outcome of each pair drawn by inverse CDF with the uniform ``u``.

    ``cdf`` holds one normalized CDF per column (the form ``measure_table``
    and ``bell_labels_table`` draw from) over a power-of-two number of
    outcomes; pair k reads column ``of[k]``.  ``u`` holds one uniform in
    [0, 1) per pair.  The first outcome whose CDF exceeds u always exists
    and has a positive probability, so an outcome of probability 0 is never
    drawn.
    """
    u = np.asarray(u, dtype=float)
    n_out, n = len(cdf), len(of)
    if u.shape != (n,):
        raise ValueError(f"need one uniform per row: {n} rows, {u.shape} uniforms")
    if not ((u >= 0.0) & (u < 1.0)).all():  # NaN fails both
        raise ValueError("uniforms must lie in [0, 1)")
    if n_out & (n_out - 1):
        raise ValueError(f"need a power-of-two number of outcomes, got {n_out}")
    # as the CDF never falls, that outcome's index is the number of outcomes
    # before the last whose CDF does not exceed u, found by binary search:
    # ``pos`` walks each pair's column of ``flat`` from its first entry, and
    # a step of s reads the entry s - 1 ahead, so no (outcomes, pairs) array
    # is built and each pair reads log2(outcomes) entries
    flat = cdf.T.ravel()
    pos = np.multiply(of, n_out, dtype=np.intp)
    step = n_out >> 1
    while step:
        pos += (flat[step - 1:].take(pos) <= u) * step
        step >>= 1
    pos &= n_out - 1  # each column starts at a multiple of n_out
    return pos


def _project(work: np.ndarray, probs: np.ndarray, axes: tuple, outcomes: np.ndarray,
             x) -> np.ndarray:
    # The collapse (Lueders rule) of ``work``, the rows in their measurement
    # bases (the X mask ``x``), onto each row's drawn outcome, as a new block:
    # the outcome's amplitudes over the root of its unsnapped probability
    # ``probs`` (positive, as it was drawn), times its ket on each axis in
    # ascending order; in value, the other amplitudes zeroed and the rest
    # divided and turned back by ``_rotate``'s butterfly.
    n = len(work)
    kept = work.take(_OUTCOME_AMPS[axes][outcomes] + np.arange(0, DIM * n, DIM)[:, None])
    kept /= np.sqrt(probs).astype(complex)[:, None]  # complex, as the quotient would cast it
    states = kept.take(_PLACE[axes], axis=1)
    parts = states.view(float)
    for m, axis in enumerate(axes):
        parts *= _KET_FACTORS[axis][x[:, m].astype(np.intp), outcomes >> (len(axes) - 1 - m) & 1]
    return states


def _monomial(ops: np.ndarray) -> tuple:
    # code 4 * pol + spa, ops[pol] on photon A's pol axis and ops[spa] on its spa
    # axis, takes amplitude k of a row to phase[code, k] * amplitude source[code, k]
    lifted = np.array([np.kron(np.kron(ops[code >> 2], _I2), np.kron(ops[code & 3], _I2))
                       for code in range(DIM)])
    source = np.abs(lifted).argmax(axis=2)
    return source, np.take_along_axis(lifted, source[..., None], axis=2)[..., 0]


_ENCODE, _PAULI = _monomial(_DOF_OPS), _monomial(PAULIS)


@np.errstate(invalid="ignore")
def _permute(states: np.ndarray, codes: np.ndarray, monomial: tuple) -> np.ndarray:
    # row k gathered by the source columns of code ``codes[k]``, times its
    # phases; a non-finite row passes without a warning, to fail where it is measured
    if len(codes) != len(states):
        raise ValueError(f"need one op code per row: {len(states)} rows, {len(codes)} codes")
    # a negative code would wrap around to the end of the table
    if len(codes) and (codes.min() < 0 or codes.max() >= DIM):
        raise IndexError(f"op codes must lie in [0, {DIM})")
    source, phase = monomial
    out = states.take(source[codes] + np.arange(0, DIM * len(codes), DIM)[:, None])
    out *= phase[codes]
    return out


def encode(states: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Apply the dense-coding unitary of op code ``codes[k]`` (``EncodingOp``) to A of row k."""
    return _permute(states, codes, _ENCODE)


def pauli(states: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Apply the channel noise of code ``codes[k]`` = 4 * pol + spa (``PAULIS``) to A of row k."""
    return _permute(states, codes, _PAULI)


@np.errstate(invalid="ignore")
def _bell_cdf(states: np.ndarray) -> np.ndarray:
    # The normalized CDF that ``bell_labels_table`` draws from: over the 16
    # outcomes of every row rewritten in the hyper-Bell basis, where outcome
    # k is label k.  Each label's amplitude is its four support terms summed
    # in order; a weight multiplies the real and imaginary parts alone,
    # which the complex product only adds zeros to.
    for m in range(4):
        term = states.take(_BELL_SUPPORT[m], axis=1)
        parts = term.view(float)
        parts *= _BELL_WEIGHTS[m]
        if m:
            amps += term
        else:
            amps = term
    return _read(amps, ALL_AXES, None)[2]


# ---------------------------------------------------------------------------
# state tables
# ---------------------------------------------------------------------------


def distinct(keys: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of the integer ``keys``, all in [0, size), ascending, and each key's
    index among them (``np.unique`` with ``return_inverse``, without the sort)."""
    if len(keys) and keys.min() < 0:  # numpy would wrap it; a key past size raises below
        raise IndexError(f"keys must lie in [0, {size})")
    seen = np.zeros(size, dtype=bool)
    seen[keys] = True
    values = seen.nonzero()[0]
    slot = np.empty(size, dtype=np.intp)
    slot[values] = np.arange(len(values))
    return values, slot[keys]


def _combos(table: np.ndarray, index: np.ndarray, choice, n_choices: int) -> tuple:
    # the distinct (row index[k], choice[k] in [0, n_choices)) of the pairs
    # k, ascending: their rows, their choices, and each pair's combo
    combos, inverse = distinct(index * n_choices + choice, len(table) * n_choices)
    return *np.divmod(combos, n_choices), inverse


def map_table(table: np.ndarray, index: np.ndarray, choice, n_choices: int,
              kernel) -> tuple[np.ndarray, np.ndarray]:
    """The pairs ``table[index]`` after a row-wise state map, once per distinct (row, choice).

    ``choice`` holds one integer in [0, n_choices) per pair, and
    ``kernel(states, choices)`` returns the mapped ``states``, a new array
    of the distinct rows that it may write into.  Returns (the mapped
    states, a table of their own, and each pair's index into it).
    """
    rows, choices, inverse = _combos(table, index, choice, n_choices)
    return kernel(table[rows], choices), inverse


@np.errstate(invalid="ignore")
def measure_table(table: np.ndarray, index: np.ndarray, axes: tuple, u: np.ndarray,
                  x: np.ndarray, collapse: bool = True):
    """Measure tensor ``axes`` of the pairs whose states are ``table[index]``.

    Each pair takes one inverse-CDF draw (``draw``) over the joint outcomes
    of ``axes``, which is the same as measuring the axes one after another.
    Outcomes and the X mask ``x`` are as in ``outcome_probs``; ``u`` (see
    ``draw``) and ``x`` hold one entry per pair.  The CDF is formed once per
    distinct (row, X pattern), and the collapse once per distinct (row, X
    pattern, outcome).  Returns (outcomes, (the collapsed states in the
    computational representation, a table of their own, and each pair's
    index into it)), or (outcomes, None) when ``collapse`` is false.
    """
    # each pair's X pattern, big-endian over ``axes``, shifted together in
    # bytes: an integer matmul ``x @ weights`` takes several times as long
    pattern = np.zeros(len(x), dtype=np.uint8)
    for column in x.T:
        pattern <<= 1
        pattern |= column
    weights = 1 << np.arange(len(axes))[::-1]
    n_out = 1 << len(axes)
    rows, patterns, combo = _combos(table, index, pattern, n_out)
    xs = patterns[:, None] & weights > 0  # each combo's X mask
    # each combo's row in its measurement bases, its unsnapped outcome
    # probabilities and its CDF
    turned, raw, cdf = _read(table[rows], axes, xs)
    outcomes = draw(cdf, u, combo)
    if not collapse:
        return outcomes, None
    # one collapsed row per distinct (combo, outcome)
    kept, inverse = distinct(combo * n_out + outcomes, len(rows) * n_out)
    of, read = np.divmod(kept, n_out)
    states = _project(turned[of], raw[of, read], axes, read, xs[of])
    return outcomes, (states, inverse)


def bell_labels_table(table: np.ndarray, index: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Complete hyper-Bell analysis of the pairs whose states are ``table[index]``.

    Flat labels 4*p + s, one 16-outcome draw per pair with its uniform in
    ``u`` (see ``draw``), from one CDF per distinct row.
    """
    rows, _, row = _combos(table, index, 0, 1)
    return draw(_bell_cdf(table[rows]), u, row)


def source_fidelity(params: SourceParams) -> float:
    """Overlap probability of the source output with the ideal hyper-Bell state."""
    return float(abs(complex(np.vdot(BELL_BASIS[0], params.amplitudes))) ** 2)


def correlation_error_probs(states: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Exact per-DOF probability that the A and B outcomes of each row disagree.

    ``x`` is an (N, 2) bool mask over (pol, spa): True reads both photons of
    that DOF in the X basis, which is how the protocol's correlation check
    operates.  Returns the (N, 2) probabilities (pol, spa).
    """
    probs = outcome_probs(states, ALL_AXES, x[:, [0, 0, 1, 1]]).reshape(-1, 2, 2, 2, 2)
    p_pol = probs[:, 0, 1].sum(axis=(1, 2)) + probs[:, 1, 0].sum(axis=(1, 2))
    p_spa = probs[:, :, :, 0, 1].sum(axis=(1, 2)) + probs[:, :, :, 1, 0].sum(axis=(1, 2))
    return np.stack([p_pol, p_spa], axis=1)
