"""Lossy, noisy quantum channel for the traveling photon.

Only photon A ever travels, so loss and noise act on its side of the pair
alone.  Each transit applies, in this fixed order: a loss draw, the
adversary's interception hook, then independent per-DOF Pauli noise
(probability p split evenly over X, Y and Z).  A lost photon ends the
pair's life; the parties discard the position by classical announcement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import adversary as adv
from .hyperstate import AXIS, PAULIS, Dof, HyperState, Photon, apply_local


@dataclass(frozen=True)
class ChannelParams:
    """loss_prob in [0, 1); pauli probabilities per DOF in [0, 1]."""

    loss_prob: float = 0.0
    pauli_p_pol: float = 0.0
    pauli_p_spa: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_prob < 1.0:
            raise ValueError(f"loss_prob must be in [0, 1), got {self.loss_prob}")
        for name in ("pauli_p_pol", "pauli_p_spa"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")


@dataclass(frozen=True)
class TransmitResult:
    """Outcome of one transit; state/meta are None exactly when not delivered."""

    delivered: bool
    state: HyperState | None = None
    meta: adv.SignalMeta | None = None
    eve_record: adv.EveRecord | None = None
    trojan_inserted: bool = False


_LOST = TransmitResult(delivered=False)


class TransitDraws(NamedTuple):
    """Every random choice of one transit of n photons, drawn before any state work.

    ``delivered`` is the (n,) loss mask.  The other fields cover the
    delivered photons only: Eve's ``adversary.draw_intercept`` choices (None
    unless she intercepts and resends), the Trojan-carrying metadata of each
    photon (None unless she attaches a probe), and per DOF (pol, spa) the
    Pauli index applied to each photon, 0 for none (None on a noiseless DOF).
    """

    delivered: np.ndarray
    eve: tuple | None
    metas: list | None
    paulis: tuple


def draw_transit(
    n: int,
    params: ChannelParams,
    eve: adv.EveStrategy,
    rng: np.random.Generator,
    filter_tolerance: float = adv.DEFAULT_FILTER_TOLERANCE,
) -> TransitDraws:
    """Draw the loss, interception and noise of n photons in the channel's fixed order.

    ``filter_tolerance`` is what Eve believes the receiver's filter window to
    be; it only matters for the invisible-wavelength Trojan.  A transit with
    nothing to do draws no random numbers.
    """
    delivered = np.ones(n, dtype=bool)
    if params.loss_prob > 0.0:
        delivered = rng.random(n) >= params.loss_prob
        n = int(np.count_nonzero(delivered))
    eve_draws = metas = None
    if eve.kind is adv.EveKind.INTERCEPT_RESEND:
        eve_draws = adv.draw_intercept(n, eve, rng)
    elif eve.kind in adv.TROJAN_KINDS:
        metas = [adv.craft_trojan(eve.kind, rng, filter_tolerance) for _ in range(n)]
    paulis = []
    for p in (params.pauli_p_pol, params.pauli_p_spa):
        which = None
        if p > 0.0:
            hit = np.flatnonzero(rng.random(n) < p)
            which = np.zeros(n, dtype=np.intp)
            which[hit] = 1 + rng.integers(3, size=len(hit))
        paulis.append(which)
    return TransitDraws(delivered, eve_draws, metas, tuple(paulis))


def apply_transit(
    states: np.ndarray, eve: adv.EveStrategy, eve_draws: tuple | None, paulis: tuple
) -> tuple[np.ndarray, np.ndarray | None]:
    """Carry the delivered rows of a block through Eve and the noise as drawn.

    ``eve_draws`` and ``paulis`` are ``TransitDraws`` fields, one entry per
    row of ``states``.  Returns (new states, Eve's record codes or None).
    """
    codes = None
    if eve_draws is not None:
        states, codes = adv.resend(states, eve, *eve_draws)
    for dof, which in zip((Dof.POL, Dof.SPA), paulis):
        if which is not None:
            states = apply_local(states, AXIS[(Photon.A, dof)], PAULIS[which])
    return states, codes


def transmit(
    state: HyperState,
    meta: adv.SignalMeta,
    params: ChannelParams,
    eve: adv.EveStrategy,
    rng: np.random.Generator,
    filter_tolerance: float = adv.DEFAULT_FILTER_TOLERANCE,
) -> TransmitResult:
    """Send photon A of one pair through the channel: ``draw_transit`` then ``apply_transit``."""
    draws = draw_transit(1, params, eve, rng, filter_tolerance)
    if not draws.delivered[0]:
        return _LOST
    states, codes = apply_transit(state.amps[None], eve, draws.eve, draws.paulis)
    return TransmitResult(
        True,
        HyperState(states[0], _trusted=True),
        meta if draws.metas is None else draws.metas[0],
        None if codes is None else adv.EveRecord.from_codes(codes[0]),
        draws.metas is not None,
    )
