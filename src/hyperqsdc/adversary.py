"""Eavesdropper models and the receiver-side countermeasures.

Two attack families are modeled.  Intercept-resend touches the quantum
state: Eve measures chosen DOFs of the traveling photon and forwards a
fresh photon prepared in her outcome state.  Trojan-horse attacks leave
the state alone and instead perturb the classical metadata of the optical
signal (extra probe photons, an off-band wavelength, a delayed copy);
they are countered by a wavelength filter and a photon-number splitter
at the receiving party, not by the correlation checks.

Strategies are stateless: every random decision comes from the generator
handed in, so records and reproducibility belong to the caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .hyperstate import AXIS, Basis, Dof, EncodingOp, HyperState, Photon, measure


class EveKind(Enum):
    """Adversary families; NONE disables the interception hook."""

    NONE = "none"
    INTERCEPT_RESEND = "intercept_resend"
    TROJAN_MULTIPHOTON = "trojan_multiphoton"
    TROJAN_INVISIBLE = "trojan_invisible"
    TROJAN_DELAY = "trojan_delay"


TROJAN_KINDS = frozenset(
    {EveKind.TROJAN_MULTIPHOTON, EveKind.TROJAN_INVISIBLE, EveKind.TROJAN_DELAY}
)


class BasisPolicy(Enum):
    """How intercept-resend picks its measurement basis per DOF."""

    UNIFORM_ZX = "uniform"
    FIXED_Z = "fixed_z"
    FIXED_X = "fixed_x"


class PnsKind(Enum):
    """Photon-number splitter models."""

    IDEAL = "ideal"
    BEAMSPLITTER_5050 = "beamsplitter5050"


class DefenseVerdict(Enum):
    CLEAN = "clean"
    FILTERED_OUT = "filtered_out"
    PNS_ALARM = "pns_alarm"


# Tolerance shared by the default filter and by Eve when she tunes her
# invisible probe to sit just outside it.
DEFAULT_FILTER_TOLERANCE = 0.05


@dataclass(frozen=True)
class EveStrategy:
    """Attack configuration: family, attacked DOFs and basis policy."""

    kind: EveKind = EveKind.NONE
    dof_mask: frozenset = frozenset({Dof.POL, Dof.SPA})
    basis_policy: BasisPolicy = BasisPolicy.UNIFORM_ZX

    def __post_init__(self) -> None:
        mask = frozenset(self.dof_mask)
        object.__setattr__(self, "dof_mask", mask)
        if not mask <= {Dof.POL, Dof.SPA}:
            raise ValueError(f"unknown DOF in mask: {mask}")
        if self.kind is EveKind.INTERCEPT_RESEND and not mask:
            raise ValueError("intercept-resend needs a nonempty dof_mask")


@dataclass(frozen=True)
class SignalMeta:
    """Classical metadata of one optical signal as seen by detectors."""

    photon_count: int = 1
    wavelength_offset: float = 0.0
    delayed: bool = False

    def __post_init__(self) -> None:
        if self.photon_count < 1:
            raise ValueError(f"photon_count must be >= 1, got {self.photon_count}")

    @staticmethod
    def legitimate() -> "SignalMeta":
        """Meta of an unmolested signal: one on-band, on-time photon."""
        return SignalMeta(1, 0.0, False)


@dataclass(frozen=True)
class DefenseConfig:
    """Receiver-side countermeasures applied before the encoder."""

    filter_enabled: bool = False
    filter_tolerance: float = DEFAULT_FILTER_TOLERANCE
    pns_enabled: bool = False
    pns_kind: PnsKind = PnsKind.IDEAL

    def __post_init__(self) -> None:
        if not self.filter_tolerance > 0.0:
            raise ValueError(f"filter_tolerance must be > 0, got {self.filter_tolerance}")


@dataclass(frozen=True)
class EveRecord:
    """What Eve wrote down about one intercepted photon (None = DOF untouched)."""

    pol_basis: Basis | None = None
    pol_outcome: int | None = None
    spa_basis: Basis | None = None
    spa_outcome: int | None = None

    # Blocks keep Eve's notes as record codes: an int8 array (..., 2, 2)
    # indexed [dof (pol, spa), (basis, outcome)], basis 0 = Z and 1 = X,
    # and -1 in both slots of a DOF she did not measure.

    @staticmethod
    def from_codes(codes: np.ndarray) -> "EveRecord":
        (pb, po), (sb, so) = codes.tolist()
        return EveRecord(
            None if pb < 0 else _BASES[pb], None if po < 0 else po,
            None if sb < 0 else _BASES[sb], None if so < 0 else so,
        )

    def codes(self) -> np.ndarray:
        return np.array(
            [[-1 if b is None else _BASES.index(b), -1 if o is None else o]
             for b, o in ((self.pol_basis, self.pol_outcome), (self.spa_basis, self.spa_outcome))],
            dtype=np.int8,
        )


_BASES = (Basis.Z, Basis.X)
_DOFS = (Dof.POL, Dof.SPA)


def _pick_x(policy: BasisPolicy, rng: np.random.Generator, shape: tuple) -> np.ndarray:
    if policy is BasisPolicy.FIXED_Z:
        return np.zeros(shape, dtype=bool)
    if policy is BasisPolicy.FIXED_X:
        return np.ones(shape, dtype=bool)
    return rng.random(shape) < 0.5


def _slots(strategy: EveStrategy) -> list[int]:
    # record slots of the measured DOFs; the fixed order keeps the generator stream reproducible
    if strategy.kind is not EveKind.INTERCEPT_RESEND:
        raise ValueError(f"strategy kind is {strategy.kind}, not intercept-resend")
    return [k for k, dof in enumerate(_DOFS) if dof in strategy.dof_mask]


def draw_intercept(
    n: int, strategy: EveStrategy, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Eve's random choices for n intercepted photons: (X-basis mask per measured DOF, uniforms)."""
    x = _pick_x(strategy.basis_policy, rng, (n, len(_slots(strategy))))
    return x, rng.random(n)


def resend(
    states: np.ndarray, strategy: EveStrategy, x: np.ndarray, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Apply ``draw_intercept``'s choices: measure every row and resend the outcome.

    Returns the collapsed (N, 16) block and Eve's (N, 2, 2) record codes.
    Both masked DOFs are read by one joint draw per row.  The projective
    collapse already leaves photon A in exactly the state Eve forwards, so
    the returned pair states double as the resent signals.
    """
    slots = _slots(strategy)
    axes = tuple(AXIS[(Photon.A, _DOFS[k])] for k in slots)
    outcomes, states = measure(states, axes, u, x)
    codes = np.full((len(states), 2, 2), -1, dtype=np.int8)
    codes[:, slots, 0] = x
    codes[:, slots, 1] = (outcomes[:, None] >> np.arange(len(slots))[::-1]) & 1
    return states, codes


def intercept_block(
    states: np.ndarray, strategy: EveStrategy, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Measure the masked DOFs of photon A in every row and resend the outcome (see ``resend``)."""
    return resend(states, strategy, *draw_intercept(len(states), strategy, rng))


def intercept_resend(
    state: HyperState, strategy: EveStrategy, rng: np.random.Generator
) -> tuple[HyperState, EveRecord]:
    """Single-pair ``intercept_block``: the resent pair state and Eve's record."""
    states, codes = intercept_block(state.amps[None], strategy, rng)
    return HyperState(states[0], _trusted=True), EveRecord.from_codes(codes[0])


def craft_trojan(
    kind: EveKind,
    rng: np.random.Generator,
    filter_tolerance: float = DEFAULT_FILTER_TOLERANCE,
) -> SignalMeta:
    """Signal metadata after Eve attaches her probe to a legitimate photon."""
    if kind is EveKind.TROJAN_MULTIPHOTON:
        return SignalMeta(photon_count=2, wavelength_offset=0.0, delayed=False)
    if kind is EveKind.TROJAN_INVISIBLE:
        # drawn from (tol, 2*tol]: strictly outside the filter window Eve
        # assumes the receiver has, also when random() returns 0.0
        magnitude = filter_tolerance * (2.0 - rng.random())
        sign = 1.0 if rng.random() < 0.5 else -1.0
        return SignalMeta(photon_count=2, wavelength_offset=sign * magnitude, delayed=False)
    if kind is EveKind.TROJAN_DELAY:
        return SignalMeta(photon_count=2, wavelength_offset=0.0, delayed=True)
    raise ValueError(f"not a Trojan kind: {kind}")


def apply_defenses(
    meta: SignalMeta, config: DefenseConfig, rng: np.random.Generator
) -> DefenseVerdict:
    """Filter first, then photon-number check; CLEAN means nothing tripped.

    The ideal splitter flags every multi-photon signal.  The 50/50 model
    flags one only when its n photons do not all exit the same port, which
    happens with probability 1 - 2**(1-n).
    """
    if config.filter_enabled and abs(meta.wavelength_offset) > config.filter_tolerance:
        return DefenseVerdict.FILTERED_OUT
    if config.pns_enabled and meta.photon_count >= 2:
        if config.pns_kind is PnsKind.IDEAL:
            return DefenseVerdict.PNS_ALARM
        if rng.random() < 1.0 - 2.0 ** (1 - meta.photon_count):
            return DefenseVerdict.PNS_ALARM
    return DefenseVerdict.CLEAN


def guess_encoding_ops(forward: np.ndarray, back: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Eve's best guess of the op applied to each row between her two interceptions.

    ``forward`` and ``back`` are (N, 2, 2) record codes of the two passes.
    Matching bases across the passes expose one bit of the per-DOF op: the
    outcome XOR equals the flip bit when she measured Z twice and the phase
    bit when she measured X twice.  Unknown bits are guessed uniformly, bit
    [row, dof, (flip, phase)] as ``u`` < 0.5 at that index of the (N, 2, 2)
    uniforms ``u``.  Returns the guessed op codes (see ``EncodingOp.code``).
    """
    coins = u < 0.5
    basis = forward[..., 0]
    matched = (basis >= 0) & (basis == back[..., 0])
    xor = forward[..., 1] ^ back[..., 1]
    flip = np.where(matched & (basis == 0), xor, coins[..., 0])
    phase = np.where(matched & (basis == 1), xor, coins[..., 1])
    dof_op = 2 * flip.astype(np.intp) + phase  # per-DOF op index - 1
    return 4 * dof_op[:, 0] + dof_op[:, 1]


def guess_encoding_op(
    forward: EveRecord | None,
    back: EveRecord | None,
    rng: np.random.Generator,
) -> EncodingOp:
    """Single-pair ``guess_encoding_ops``; None means Eve did not see that pass."""
    codes = [(rec or EveRecord()).codes() for rec in (forward, back)]
    u = rng.random((1, 2, 2))
    return EncodingOp.from_code(int(guess_encoding_ops(codes[0][None], codes[1][None], u)[0]))
