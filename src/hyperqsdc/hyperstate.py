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

States are rays, not vectors: two states that differ by a global phase are
physically identical, and ``HyperState.equiv`` tests exactly that.  All
operations here are pure functions.  Anything stochastic takes an explicit
``numpy.random.Generator``, so callers own reproducibility and threads may
share everything except their generator.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum, IntEnum

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


# ---------------------------------------------------------------------------
# fixed matrices
# ---------------------------------------------------------------------------

_I2 = np.eye(2, dtype=complex)
_PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
_PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)

# Single-DOF encoding unitaries by index: identity, phase flip, bit flip, both.
_DOF_OPS = {1: _I2, 2: _PAULI_Z, 3: _PAULI_X, 4: _PAULI_X @ _PAULI_Z}

# Tensor axes in the normative order (pol_a, pol_b, spa_a, spa_b).
_AXIS = {
    (Photon.A, Dof.POL): 0,
    (Photon.B, Dof.POL): 1,
    (Photon.A, Dof.SPA): 2,
    (Photon.B, Dof.SPA): 3,
}


def _lift(m: np.ndarray, axis: int) -> np.ndarray:
    """Embed a 2x2 matrix acting on one tensor axis into the full 16-dim space."""
    factors = [_I2, _I2, _I2, _I2]
    factors[axis] = m
    out = factors[0]
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


_HADAMARD_ON = [_lift(_HADAMARD, ax) for ax in range(4)]
_PAULI_ON_A = {
    (Dof.POL, "X"): _lift(_PAULI_X, 0),
    (Dof.POL, "Y"): _lift(_PAULI_Y, 0),
    (Dof.POL, "Z"): _lift(_PAULI_Z, 0),
    (Dof.SPA, "X"): _lift(_PAULI_X, 2),
    (Dof.SPA, "Y"): _lift(_PAULI_Y, 2),
    (Dof.SPA, "Z"): _lift(_PAULI_Z, 2),
}

# U_ij acts on photon A only: pol part on axis 0, spatial part on axis 2.
_ENCODING_MATRIX = {
    (i, j): _lift(_DOF_OPS[i], 0) @ _lift(_DOF_OPS[j], 2)
    for i in (1, 2, 3, 4)
    for j in (1, 2, 3, 4)
}

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

# Masks selecting the entries where a given tensor axis equals a given bit.
_BIT_MASK = np.zeros((4, 2, DIM), dtype=bool)
for _k in range(DIM):
    _bits = (_k >> 3 & 1, _k >> 2 & 1, _k >> 1 & 1, _k & 1)
    for _ax in range(4):
        _BIT_MASK[_ax, _bits[_ax], _k] = True


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
# operations
# ---------------------------------------------------------------------------


def make_hyper_bell(idx: BellIndex) -> HyperState:
    """The hyper-Bell state with the given polarization and spatial labels."""
    return HyperState(BELL_BASIS[idx.flat()].copy(), _trusted=True)


def apply_encoding(state: HyperState, op: EncodingOp) -> HyperState:
    """Apply the local dense-coding unitary U_ij to photon A."""
    return HyperState(_ENCODING_MATRIX[(op.i, op.j)] @ state.amps, _trusted=True)


def apply_hadamard(state: HyperState, who: Photon, dof: Dof) -> HyperState:
    """Basis-change transform between Z and X for one photon and one DOF."""
    return HyperState(_HADAMARD_ON[_AXIS[(who, dof)]] @ state.amps, _trusted=True)


def apply_pauli_a(state: HyperState, dof: Dof, which: str) -> HyperState:
    """Apply Pauli X, Y or Z to the named DOF of photon A (channel noise)."""
    return HyperState(_PAULI_ON_A[(dof, which)] @ state.amps, _trusted=True)


def _draw(probs, rng: np.random.Generator) -> int:
    """Inverse-CDF draw; never lands on a zero-probability bucket."""
    r = rng.random()
    acc = 0.0
    last_positive = 0
    for k, p in enumerate(probs):
        if p > 0.0:
            last_positive = k
            acc += p
            if r < acc:
                return k
    return last_positive


def chbsa(state: HyperState, rng: np.random.Generator) -> BellIndex:
    """Complete hyper-Bell state analysis: one Born-rule draw over all 16 outcomes.

    On an exact hyper-Bell state the outcome is deterministic; on anything
    else it samples the squared overlaps.
    """
    amps = BELL_BASIS.conj() @ state.amps
    probs = np.abs(amps) ** 2
    return BellIndex.from_flat(_draw(probs, rng))


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
    axis = _AXIS[(who, dof)]
    work = state.amps
    if basis is Basis.X:
        work = _HADAMARD_ON[axis] @ work
    p1 = float(np.sum(np.abs(work[_BIT_MASK[axis, 1]]) ** 2))
    bit = 1 if rng.random() < p1 else 0
    post = work.copy()
    post[_BIT_MASK[axis, 1 - bit]] = 0.0
    norm = np.linalg.norm(post)
    post /= norm
    if basis is Basis.X:
        post = _HADAMARD_ON[axis] @ post
    return bit, HyperState(post, _trusted=True)


def measure_photon(
    state: HyperState,
    who: Photon,
    basis: MeasBasis,
    rng: np.random.Generator,
) -> tuple[tuple[int, int], HyperState]:
    """Measure both DOFs of one photon (polarization first, then spatial)."""
    pol_bit, state = measure_photon_dof(state, who, Dof.POL, basis.pol, rng)
    spa_bit, state = measure_photon_dof(state, who, Dof.SPA, basis.spa, rng)
    return (pol_bit, spa_bit), state


def source_state(params: SourceParams) -> HyperState:
    """Pair state emitted by a source with spatial imbalance r and phase phi.

    The polarization part is always the balanced (|HH> + |VV>) form; the
    spatial part carries amplitude r*exp(i*phi) on the second mode pair.
    """
    pol = np.array([1, 0, 0, 1], dtype=complex)
    spa = np.array([1, 0, 0, params.r * cmath.exp(1j * params.phi)], dtype=complex)
    vec = np.kron(pol, spa)
    return HyperState(vec / np.linalg.norm(vec), _trusted=True)


def source_fidelity(params: SourceParams) -> float:
    """Overlap probability of the source output with the ideal hyper-Bell state."""
    ideal = make_hyper_bell(BellIndex(Bell.PHI_PLUS, Bell.PHI_PLUS))
    return float(abs(ideal.overlap(source_state(params))) ** 2)


def correlation_error_probs(state: HyperState, basis: MeasBasis) -> tuple[float, float]:
    """Exact per-DOF probability that A and B outcomes disagree in this basis.

    Both photons are measured in the same per-DOF bases, which is how the
    protocol's correlation check operates.
    """
    work = state.amps
    if basis.pol is Basis.X:
        work = _HADAMARD_ON[1] @ (_HADAMARD_ON[0] @ work)
    if basis.spa is Basis.X:
        work = _HADAMARD_ON[3] @ (_HADAMARD_ON[2] @ work)
    probs = np.abs(work.reshape(2, 2, 2, 2)) ** 2
    p_pol = float(probs[0, 1].sum() + probs[1, 0].sum())
    p_spa = float(probs[:, :, 0, 1].sum() + probs[:, :, 1, 0].sum())
    return p_pol, p_spa


def _build_dense_coding_tables() -> tuple[dict, dict]:
    # Brute force at import time: push the ideal pair through each U_ij and
    # locate the unique hyper-Bell state it lands on.
    ideal = make_hyper_bell(BellIndex(Bell.PHI_PLUS, Bell.PHI_PLUS))
    bell_of: dict[EncodingOp, BellIndex] = {}
    op_of: dict[BellIndex, EncodingOp] = {}
    for i in (1, 2, 3, 4):
        for j in (1, 2, 3, 4):
            op = EncodingOp(i, j)
            encoded = apply_encoding(ideal, op)
            hits = [
                k for k in range(DIM)
                if abs(abs(np.vdot(BELL_BASIS[k], encoded.amps)) - 1.0) <= ATOL
            ]
            if len(hits) != 1:
                raise AssertionError(f"U_{i}{j} does not map the ideal state to a unique Bell state")
            idx = BellIndex.from_flat(hits[0])
            bell_of[op] = idx
            op_of[idx] = op
    if len(op_of) != DIM:
        raise AssertionError("dense-coding map is not a bijection")
    return bell_of, op_of


_BELL_OF_OP, _OP_OF_BELL = _build_dense_coding_tables()


def bell_from_op(op: EncodingOp) -> BellIndex:
    """Hyper-Bell state reached by applying U_ij to the ideal pair."""
    return _BELL_OF_OP[op]


def op_from_bell(idx: BellIndex) -> EncodingOp:
    """Inverse of ``bell_from_op``; this is Bob's decoding table."""
    return _OP_OF_BELL[idx]
