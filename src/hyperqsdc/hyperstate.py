"""Exact 16-dimensional state mechanics for hyperentangled photon pairs.

A pair of photons A and B is entangled in two degrees of freedom at once:
polarization (H or V per photon) and spatial mode (a1/a2 for photon A,
b1/b2 for photon B).  The joint pure state therefore lives in a
16-dimensional Hilbert space.  Amplitudes are kept in a fixed big-endian
order over the four binary labels

    index = 8*pol_a + 4*pol_b + 2*spa_a + spa_b

with H = 0, V = 1 for polarization and first mode = 0, second mode = 1 for
the spatial label.  This order is load-bearing: serialized states, the
hyper-Bell basis matrix and the encoding unitaries all use it.

A block of pairs is one ``(N, 16)`` complex array, row k holding pair k; it
can be viewed as ``(N, 2, 2, 2, 2)`` with tensor axes (pol_a, pol_b, spa_a,
spa_b).  Three whole-block kernels do the general state work: ``apply_local``
(a 2x2 operator on one axis of every row), ``measure`` (one Born draw per
row over the joint outcomes of some axes) and ``outcome_probs`` (the exact
probabilities behind that draw).  Dense coding and the hyper-Bell readout
are fixed sparse maps, applied as column gathers of (N, 16) blocks: each
coding unitary is a signed permutation of the amplitudes, and each
hyper-Bell amplitude a four-term sum.  The Z-to-X basis change in front of a
draw is a Hadamard butterfly on the rows measured in X only, s*v0 + s*v1
and s*v0 - s*v1 with s = 1/sqrt(2): the very products and sums that
``apply_local`` forms for the Hadamard, so the amplitudes are bitwise those
of the generic 2x2 product, and a row measured in Z is left untouched.
The single-pair functions below are N=1 calls of the same kernels.

States are rays, not vectors: two states that differ by a global phase are
physically identical, and ``HyperState.equiv`` tests exactly that.  All
operations here are pure functions.  Anything stochastic takes an explicit
``numpy.random.Generator`` or explicit uniforms, so callers own
reproducibility and threads may share everything except their generator.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum, IntEnum
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


class Basis(Enum):
    """Single-DOF measurement basis; X is the Hadamard conjugate of Z."""

    Z = "Z"
    X = "X"


class Bell(IntEnum):
    """The four Bell states of one degree of freedom."""

    PHI_PLUS = 0
    PHI_MINUS = 1
    PSI_PLUS = 2
    PSI_MINUS = 3


@dataclass(frozen=True)
class BellIndex:
    """Joint Bell label (polarization part, spatial part) of a pair state."""

    p: Bell
    s: Bell

    def flat(self) -> int:
        """Row of this label in the hyper-Bell basis matrix."""
        return int(self.p) * 4 + int(self.s)

    @staticmethod
    def from_flat(k: int) -> "BellIndex":
        return BellIndex(Bell(k // 4), Bell(k % 4))


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
class MeasBasis:
    """Per-DOF basis choice for a single-photon measurement."""

    pol: Basis
    spa: Basis


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
        """The 16 amplitudes of ``source_state``, for filling a block; read-only."""
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
_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)

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

# Four Bell states of one DOF as 4-vectors indexed by 2*bit_a + bit_b.
_SQ2 = 1.0 / math.sqrt(2)
_BELL_VEC = {
    Bell.PHI_PLUS: np.array([_SQ2, 0, 0, _SQ2], dtype=complex),
    Bell.PHI_MINUS: np.array([_SQ2, 0, 0, -_SQ2], dtype=complex),
    Bell.PSI_PLUS: np.array([0, _SQ2, _SQ2, 0], dtype=complex),
    Bell.PSI_MINUS: np.array([0, _SQ2, -_SQ2, 0], dtype=complex),
}

# Row k = 4*p + s holds the hyper-Bell state |p>_pol (x) |s>_spa.  The kron of
# the two 4-vectors lands exactly on the normative index order.
BELL_BASIS = np.array(
    [np.kron(_BELL_VEC[Bell(p)], _BELL_VEC[Bell(s)]) for p in range(4) for s in range(4)]
)

# For each ascending set of measured axes: the joint outcome, big-endian over
# those axes, that each amplitude index belongs to.
_OUTCOME_OF_INDEX = {
    axes: np.array([sum(((k >> (3 - a)) & 1) << (len(axes) - 1 - m) for m, a in enumerate(axes))
                    for k in range(DIM)])
    for axes in (tuple(a for a in ALL_AXES if mask >> (3 - a) & 1) for mask in range(1, DIM))
}

# Every hyper-Bell state has four nonzero amplitudes, so the amplitude of
# label k in a state is the sum over m of the state's amplitude
# _BELL_SUPPORT[m, k] times _BELL_WEIGHTS[m, k].
_BELL_SUPPORT = np.array([np.flatnonzero(row) for row in BELL_BASIS]).T.copy()
_BELL_WEIGHTS = np.take_along_axis(BELL_BASIS.conj(), _BELL_SUPPORT.T, axis=1).T.copy()

# Every dense-coding unitary (op code c on photon A) is a signed permutation
# of the 16 amplitudes: amplitude i of the result is _ENCODE_SIGN[c, i]
# times amplitude _ENCODE_SOURCE[c, i] of the state.  _ENCODE_UNITARIES[c]
# is U_pol (x) I (x) U_spa (x) I for the two single-DOF ops of code c.
_ENCODE_UNITARIES = np.einsum(
    "cij,kl,cmn,uv->cikmujlnv",
    _DOF_OPS[np.arange(DIM) >> 2], _I2, _DOF_OPS[np.arange(DIM) & 3], _I2,
).reshape(DIM, DIM, DIM)
_ENCODE_SOURCE = np.abs(_ENCODE_UNITARIES).argmax(axis=2)
_ENCODE_SIGN = np.take_along_axis(_ENCODE_UNITARIES, _ENCODE_SOURCE[..., None], axis=2)[..., 0].real


# ---------------------------------------------------------------------------
# block kernels
# ---------------------------------------------------------------------------


def apply_local(states: np.ndarray, axis: int, ops: np.ndarray) -> np.ndarray:
    """Apply a 2x2 operator to tensor ``axis`` of every row of an (N, 16) block.

    ``ops`` is one (2, 2) matrix shared by all rows or an (N, 2, 2) stack
    with one matrix per row.  Returns a new block.
    """
    n = len(states)
    v = states.reshape(n, 1 << axis, 1, 2, 8 >> axis)
    o = ops.reshape(-1, 1, 2, 2, 1)
    # new[.., r, ..] = o[r, 0] * old[.., 0, ..] + o[r, 1] * old[.., 1, ..]
    return (o[:, :, :, :1] * v[:, :, :, :1] + o[:, :, :, 1:] * v[:, :, :, 1:]).reshape(n, DIM)


def _x_rows(axes: tuple, x) -> list:
    # (tensor axes, rows measured in X on them) per gather, in ascending axis
    # order.  The two axes of one DOF share a gather when their X columns
    # agree, as in a correlation check, which reads both photons of a DOF in
    # one basis.
    if x is None:
        return []
    runs = []
    m = 0
    while m < len(axes):
        width = 1
        if (m + 1 < len(axes) and axes[m] // 2 == axes[m + 1] // 2
                and x[:, m].tobytes() == x[:, m + 1].tobytes()):
            width = 2
        rows = x[:, m].nonzero()[0]
        if len(rows):
            runs.append((axes[m : m + width], rows))
        m += width
    return runs


def _hadamard(states: np.ndarray, axes: tuple) -> None:
    # Hadamard on tensor ``axes`` of every row, one after another, in place:
    # new0 = s*v0 + s*v1 and new1 = s*v0 - s*v1, the very products and sums
    # that apply_local forms for this operator
    n = len(states)
    for axis in axes:
        v = states.reshape(n, 1 << axis, 2, 8 >> axis)
        v *= _SQ2
        v0, v1 = v[:, :, 0], v[:, :, 1]
        diff = v0 - v1
        v0 += v1
        v1[...] = diff


def _rotate(states: np.ndarray, runs: list, fresh: bool = False) -> np.ndarray:
    # Z-to-X basis change of the X rows of each run, which is its own inverse;
    # a Z row is left as it is.  A new block unless ``fresh`` allows writing
    # into ``states``.
    for axes, rows in runs:
        if not fresh:
            states, fresh = states.copy(), True
        if len(rows) == len(states):
            _hadamard(states, axes)
        else:
            sub = states[rows]
            _hadamard(sub, axes)
            states[rows] = sub
    return states


def _born(states: np.ndarray, axes: tuple) -> np.ndarray:
    # Unsnapped probabilities of the joint outcomes of the ascending ``axes``.
    n = len(states)
    probs = states.conj()
    probs *= states  # in place: the real part is that of states * conj(states)
    probs = probs.real.reshape(n, 2, 2, 2, 2)
    for axis in reversed(ALL_AXES):
        if axis not in axes:
            # summing a length-2 axis as two slices is much faster than .sum()
            before = (slice(None),) * (1 + axis)
            probs = probs[before + (0,)] + probs[before + (1,)]
    return probs.reshape(n, 1 << len(axes))


def _snap(probs: np.ndarray) -> np.ndarray:
    return np.where(probs <= ATOL, 0.0, np.where(probs >= 1.0 - ATOL, 1.0, probs))


def outcome_probs(states: np.ndarray, axes: tuple, x=None) -> np.ndarray:
    """Exact per-row probabilities of the joint outcomes of tensor ``axes``.

    ``axes`` is ascending; outcome index o is big-endian over them (bit 1 =
    V / second mode, or minus in X).  ``x`` is an optional (N, len(axes))
    bool mask: True measures that axis of that row in the X basis.
    Probabilities within ``ATOL`` of 0 or 1 are returned as exactly 0 or 1.
    Returns an (N, 2**len(axes)) array.
    """
    return _snap(_born(_rotate(states, _x_rows(axes, x)), axes))


def measure(states: np.ndarray, axes: tuple, u: np.ndarray, x=None, collapse: bool = True):
    """Measure tensor ``axes`` of every row by one inverse-CDF draw over their joint outcomes.

    Outcomes and ``x`` are as in ``outcome_probs``; ``u`` holds one uniform
    in [0, 1) per row.  Sampling the joint outcome is the same as measuring
    the axes one after another.  An outcome of probability 0 is never drawn,
    whatever ``u`` and however far rounding leaves a row's total from 1.
    Returns (outcomes, collapsed block), the block in the computational
    representation, or (outcomes, None) when ``collapse`` is false.
    """
    runs = _x_rows(axes, x)
    work = _rotate(states, runs)
    raw = _born(work, axes)
    cdf = _snap(raw).cumsum(axis=1)
    total = cdf[:, -1:]
    if not (total > 0.0).all():
        raise ValueError("cannot measure a row whose outcome probabilities are all zero")
    # dividing by the total puts exactly 1.0 on the last nonzero outcome and
    # leaves a zero-probability outcome's CDF equal to its predecessor's, so
    # the first outcome whose CDF exceeds u always exists and has p > 0
    outcomes = (cdf / total > u[:, None]).argmax(axis=1)
    if not collapse:
        return outcomes, None
    keep = _OUTCOME_OF_INDEX[axes] == outcomes[:, None]
    # the drawn outcome's snapped probability is positive, so its raw one is too
    norm = np.sqrt(raw[np.arange(len(work)), outcomes])
    post = np.where(keep, work, 0.0) / norm[:, None]
    return outcomes, _rotate(post, runs, fresh=True)


def encode(states: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Apply the dense-coding unitary with op code ``codes[k]`` to photon A of row k.

    The unitary is applied as the signed permutation it is, so each result
    amplitude is plus or minus one amplitude of the row, exactly.
    """
    out = np.take_along_axis(states, _ENCODE_SOURCE[codes], axis=1)
    out *= _ENCODE_SIGN[codes]
    return out


def _bell_term(states: np.ndarray, m: int) -> np.ndarray:
    # term m of every label's amplitude, as a new (N, 16) block
    term = states.take(_BELL_SUPPORT[m], axis=1)
    term *= _BELL_WEIGHTS[m]
    return term


def bell_labels(states: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Complete hyper-Bell analysis of every row: flat labels 4*p + s, one 16-outcome draw each.

    The draw runs on the rows rewritten in the hyper-Bell basis, where
    outcome k is label k.
    """
    # each label's amplitude is its four support terms summed in order,
    # one (N, 16) term at a time
    amps = _bell_term(states, 0)
    for m in (1, 2, 3):
        amps += _bell_term(states, m)
    return measure(amps, ALL_AXES, u, collapse=False)[0]


# ---------------------------------------------------------------------------
# state container
# ---------------------------------------------------------------------------


class HyperState:
    """Normalized pure state of one photon pair (16 complex amplitudes)."""

    __slots__ = ("amps",)

    def __init__(self, amps, *, _trusted: bool = False):
        if _trusted:
            a = amps
        else:
            a = np.array(amps, dtype=complex)
            if a.shape != (DIM,):
                raise ValueError(f"expected {DIM} amplitudes, got shape {a.shape}")
            if abs(float(np.sum(np.abs(a) ** 2)) - 1.0) > ATOL:
                raise ValueError("amplitudes are not normalized")
        a.setflags(write=False)
        self.amps = a

    @classmethod
    def normalized(cls, amps) -> "HyperState":
        """Build a state from unnormalized amplitudes (must not be all zero)."""
        a = np.array(amps, dtype=complex)
        if a.shape != (DIM,):
            raise ValueError(f"expected {DIM} amplitudes, got shape {a.shape}")
        n = np.linalg.norm(a)
        if n < 1e-300:
            raise ValueError("cannot normalize the zero vector")
        return cls(a / n, _trusted=True)

    def overlap(self, other: "HyperState") -> complex:
        """Inner product <self|other>."""
        return complex(np.vdot(self.amps, other.amps))

    def equiv(self, other: "HyperState", atol: float = ATOL) -> bool:
        """Ray equality: true when the states agree up to a global phase."""
        return abs(abs(self.overlap(other)) - 1.0) <= atol

    def to_amplitude_pairs(self) -> list[tuple[float, float]]:
        """Serialize as 16 (re, im) pairs in the normative index order."""
        return [(float(a.real), float(a.imag)) for a in self.amps]

    @classmethod
    def from_amplitude_pairs(cls, pairs) -> "HyperState":
        """Rebuild a state from ``to_amplitude_pairs`` output."""
        return cls([complex(re, im) for re, im in pairs])

    def __repr__(self) -> str:
        nz = np.flatnonzero(np.abs(self.amps) > 1e-9)
        return f"HyperState(nonzero at {list(map(int, nz))})"


def ket_index(pol_a: int, pol_b: int, spa_a: int, spa_b: int) -> int:
    """Amplitude index of a product ket in the normative order."""
    return 8 * pol_a + 4 * pol_b + 2 * spa_a + spa_b


# ---------------------------------------------------------------------------
# single-pair operations: N=1 calls of the block kernels
# ---------------------------------------------------------------------------


def make_hyper_bell(idx: BellIndex) -> HyperState:
    """The hyper-Bell state with the given polarization and spatial labels."""
    return HyperState(BELL_BASIS[idx.flat()].copy(), _trusted=True)


def apply_encoding(state: HyperState, op: EncodingOp) -> HyperState:
    """Apply the local dense-coding unitary U_ij to photon A."""
    return HyperState(encode(state.amps[None], np.array([op.code]))[0], _trusted=True)


def apply_hadamard(state: HyperState, who: Photon, dof: Dof) -> HyperState:
    """Basis-change transform between Z and X for one photon and one DOF."""
    return HyperState(apply_local(state.amps[None], AXIS[(who, dof)], _HADAMARD)[0], _trusted=True)


def chbsa(state: HyperState, rng: np.random.Generator) -> BellIndex:
    """Complete hyper-Bell state analysis: one Born-rule draw over all 16 outcomes.

    On an exact hyper-Bell state the outcome is deterministic; on anything
    else it samples the squared overlaps.
    """
    return BellIndex.from_flat(int(bell_labels(state.amps[None], rng.random(1))[0]))


def measure_photon_dof(
    state: HyperState,
    who: Photon,
    dof: Dof,
    basis: Basis,
    rng: np.random.Generator,
) -> tuple[int, HyperState]:
    """Measure one DOF of one photon; returns (bit, collapsed state).

    Z outcomes are 0 = H / first mode, 1 = V / second mode; X outcomes are
    0 = plus, 1 = minus.  The collapsed state is reported back in the
    computational representation (the X transform is undone after projecting).
    """
    x = np.array([[basis is Basis.X]])
    bits, post = measure(state.amps[None], (AXIS[(who, dof)],), rng.random(1), x)
    return int(bits[0]), HyperState(post[0], _trusted=True)


def measure_photon(
    state: HyperState,
    who: Photon,
    basis: MeasBasis,
    rng: np.random.Generator,
) -> tuple[tuple[int, int], HyperState]:
    """Measure both DOFs of one photon with one joint draw; returns ((pol, spa), state)."""
    x = np.array([[basis.pol is Basis.X, basis.spa is Basis.X]])
    outcomes, post = measure(state.amps[None], (AXIS[(who, Dof.POL)], AXIS[(who, Dof.SPA)]),
                             rng.random(1), x)
    return (int(outcomes[0] >> 1), int(outcomes[0] & 1)), HyperState(post[0], _trusted=True)


def source_state(params: SourceParams) -> HyperState:
    """Pair state emitted by a source with spatial imbalance r and phase phi.

    The polarization part is always the balanced (|HH> + |VV>) form; the
    spatial part carries amplitude r*exp(i*phi) on the second mode pair.
    """
    return HyperState(params.amplitudes, _trusted=True)


def source_fidelity(params: SourceParams) -> float:
    """Overlap probability of the source output with the ideal hyper-Bell state."""
    ideal = make_hyper_bell(BellIndex(Bell.PHI_PLUS, Bell.PHI_PLUS))
    return float(abs(ideal.overlap(source_state(params))) ** 2)


def correlation_error_probs(state: HyperState, basis: MeasBasis) -> tuple[float, float]:
    """Exact per-DOF probability that A and B outcomes disagree in this basis.

    Both photons are measured in the same per-DOF bases, which is how the
    protocol's correlation check operates.
    """
    x = np.array([[basis.pol is Basis.X] * 2 + [basis.spa is Basis.X] * 2])
    probs = outcome_probs(state.amps[None], ALL_AXES, x)[0].reshape(2, 2, 2, 2)
    p_pol = float(probs[0, 1].sum() + probs[1, 0].sum())
    p_spa = float(probs[:, :, 0, 1].sum() + probs[:, :, 1, 0].sum())
    return p_pol, p_spa


def bell_from_op(op: EncodingOp) -> BellIndex:
    """Hyper-Bell state reached by applying U_ij to the ideal pair.

    Per DOF, identity, phase flip, bit flip and both take phi+ to phi+, phi-,
    psi+ and psi- up to a global phase, so the label's flat index is the op code.
    """
    return BellIndex.from_flat(op.code)


def op_from_bell(idx: BellIndex) -> EncodingOp:
    """Inverse of ``bell_from_op``; this is Bob's decoding table."""
    return EncodingOp.from_code(idx.flat())
