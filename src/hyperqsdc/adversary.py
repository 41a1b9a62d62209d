"""Eavesdropper models and the receiver-side countermeasures.

Two attack families are modeled.  Intercept-resend touches the quantum
state: Eve measures chosen DOFs of the traveling photon and forwards a
new photon prepared in her outcome state.  A Trojan-horse attack leaves
the state alone: Eve adds a probe photon to each signal (``draw_probes``),
and a wavelength filter and a photon-number splitter at the receiver, not
the correlation checks, screen the signals (``screen``).  Both act on
arrays of signals; ``craft_trojan`` and ``apply_defenses`` take one.

Strategies are stateless: the models take uniforms, or a callable that
draws them (in a run, from its ``draws.DrawSource``), so records and
reproducibility belong to the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .hyperstate import AXIS, Dof, Photon, measure_table


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


# A screening verdict is stored as its index in this tuple, its screen code;
# 0 (None) marks a signal that carried no probe.
SCREENS = (None, *DefenseVerdict)
SCREEN_CLEAN, SCREEN_FILTERED, SCREEN_ALARMED = map(SCREENS.index, DefenseVerdict)
PROBED_PHOTONS = 2  # a probed signal: the legitimate photon and Eve's probe


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
        if not (math.isfinite(self.filter_tolerance) and self.filter_tolerance > 0.0):
            raise ValueError(f"filter_tolerance must be finite and > 0, got {self.filter_tolerance}")


_DOFS = (Dof.POL, Dof.SPA)


def _slots(strategy: EveStrategy) -> list[int]:
    # record slots of the measured DOFs; the fixed order keeps the generator stream reproducible
    if strategy.kind is not EveKind.INTERCEPT_RESEND:
        raise ValueError(f"strategy kind is {strategy.kind}, not intercept-resend")
    return [k for k, dof in enumerate(_DOFS) if dof in strategy.dof_mask]


def resend(
    table: np.ndarray, strategy: EveStrategy, x: np.ndarray, u: np.ndarray, index: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Measure every pair and resend the outcome: Eve's X-basis mask ``x`` and uniforms ``u``.

    The pairs are the rows ``table[index]`` of a state table (see
    ``hyperstate.measure_table``).  Returns the collapsed states as a table
    of their own, each pair's index into it, and Eve's (N, 2, 2) record
    codes: an int8 array indexed [pair, dof (pol, spa), (basis, outcome)],
    basis 0 = Z and 1 = X, and -1 in both slots of a DOF she did not
    measure.  A pair's four codes are one contiguous 4-byte run, which the
    caller may copy as one word, and they are written one (dof, field)
    column at a time.  Both masked DOFs are read by one joint draw per
    pair.  The projective collapse already leaves photon A in exactly the
    state Eve forwards, so the returned pair states double as the resent
    signals.
    """
    slots = _slots(strategy)
    axes = tuple(AXIS[(Photon.A, _DOFS[k])] for k in slots)
    outcomes, (table, index) = measure_table(table, index, axes, u, x)
    codes = np.full((len(index), 2, 2), -1, dtype=np.int8)
    for i, slot in enumerate(slots):  # outcome bits are big-endian over the slots
        codes[:, slot, 0] = x[:, i]
        codes[:, slot, 1] = outcomes >> (len(slots) - 1 - i) & 1
    return table, index, codes


def draw_probes(kind: EveKind, n: int, uniform, filter_tolerance: float) -> np.ndarray:
    """Wavelength offsets of the probes Eve attaches to n legitimate photons.

    An invisible probe sits in (tol, 2*tol]: strictly outside the filter
    window Eve assumes the receiver has, also when a uniform is 0.0.  Per
    signal, it takes a magnitude uniform, then a sign uniform, from one
    ``uniform((n, 2))`` call; the other probes sit on-band and draw nothing.
    """
    if kind not in TROJAN_KINDS:
        raise ValueError(f"not a Trojan kind: {kind}")
    if kind is not EveKind.TROJAN_INVISIBLE:
        return np.zeros(n)
    u = uniform((n, 2))
    return np.where(u[:, 1] < 0.5, 1.0, -1.0) * (filter_tolerance * (2.0 - u[:, 0]))


def screen(offsets: np.ndarray, photons: np.ndarray, config: DefenseConfig, uniform) -> np.ndarray:
    """Each signal's verdict, filter first, then photon number, as its index into ``SCREENS``.

    The ideal splitter flags every multi-photon signal the filter lets
    through.  The 50/50 model takes one uniform per such signal from one
    ``uniform(rows)`` call, which gets their ascending indices, and flags it
    unless its n photons all exit one port, which happens with probability
    2**(1-n).
    """
    codes = np.full(len(offsets), SCREEN_CLEAN, dtype=np.int8)
    if config.filter_enabled:
        codes[np.abs(offsets) > config.filter_tolerance] = SCREEN_FILTERED
    if config.pns_enabled:
        multi = ((codes == SCREEN_CLEAN) & (photons >= 2)).nonzero()[0]
        if config.pns_kind is PnsKind.BEAMSPLITTER_5050:
            multi = multi[uniform(multi) < 1.0 - 2.0 ** (1 - photons[multi])]
        codes[multi] = SCREEN_ALARMED
    return codes


def craft_trojan(
    kind: EveKind,
    rng: np.random.Generator,
    filter_tolerance: float = DEFAULT_FILTER_TOLERANCE,
) -> SignalMeta:
    """Signal metadata after Eve attaches her probe to one legitimate photon."""
    [offset] = draw_probes(kind, 1, rng.random, filter_tolerance)
    return SignalMeta(PROBED_PHOTONS, float(offset), kind is EveKind.TROJAN_DELAY)


def apply_defenses(
    meta: SignalMeta, config: DefenseConfig, rng: np.random.Generator
) -> DefenseVerdict:
    """``screen`` of one signal; CLEAN means nothing tripped."""
    offsets = np.array([meta.wavelength_offset])
    photons = np.array([meta.photon_count])
    return SCREENS[screen(offsets, photons, config, lambda rows: rng.random(len(rows)))[0]]


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
