"""Lossy, noisy quantum channel for the traveling photon.

Only photon A ever travels, so loss and noise act on its side of the pair
alone.  Each transit applies, in this fixed order: a loss draw, the
adversary's interception hook, then independent per-DOF Pauli noise
(probability p split evenly over X, Y and Z).  A lost photon ends the
pair's life; the parties discard the position by classical announcement.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def transit(
    states: np.ndarray,
    params: ChannelParams,
    eve: adv.EveStrategy,
    rng: np.random.Generator,
    filter_tolerance: float = adv.DEFAULT_FILTER_TOLERANCE,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, list | None]:
    """Send photon A of every row of an (N, 16) block through the channel once.

    Returns (delivered mask, states of the delivered rows, Eve's record
    codes for them or None, the Trojan-carrying metadata of each of them or
    None).  ``filter_tolerance`` is what Eve believes the receiver's filter
    window to be; it only matters for the invisible-wavelength Trojan.  A
    transit with nothing to do draws no random numbers.
    """
    delivered = np.ones(len(states), dtype=bool)
    if params.loss_prob > 0.0:
        delivered = rng.random(len(states)) >= params.loss_prob
        states = states[delivered]
    codes = metas = None
    if eve.kind is adv.EveKind.INTERCEPT_RESEND:
        states, codes = adv.intercept_block(states, eve, rng)
    elif eve.kind in adv.TROJAN_KINDS:
        metas = [adv.craft_trojan(eve.kind, rng, filter_tolerance) for _ in range(len(states))]
    for dof, p in ((Dof.POL, params.pauli_p_pol), (Dof.SPA, params.pauli_p_spa)):
        if p > 0.0:
            hit = np.flatnonzero(rng.random(len(states)) < p)
            which = np.zeros(len(states), dtype=np.intp)
            which[hit] = 1 + rng.integers(3, size=len(hit))
            states = apply_local(states, AXIS[(Photon.A, dof)], PAULIS[which])
    return delivered, states, codes, metas


def transmit(
    state: HyperState,
    meta: adv.SignalMeta,
    params: ChannelParams,
    eve: adv.EveStrategy,
    rng: np.random.Generator,
    filter_tolerance: float = adv.DEFAULT_FILTER_TOLERANCE,
) -> TransmitResult:
    """Send photon A of one pair through the channel: a one-row ``transit``."""
    delivered, states, codes, metas = transit(state.amps[None], params, eve, rng, filter_tolerance)
    if not delivered[0]:
        return _LOST
    return TransmitResult(
        True,
        HyperState(states[0], _trusted=True),
        meta if metas is None else metas[0],
        None if codes is None else adv.EveRecord.from_codes(codes[0]),
        metas is not None,
    )
