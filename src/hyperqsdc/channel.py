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
from .hyperstate import AXIS, PAULIS, Dof, Photon, apply_local, distinct, map_table


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
    table: np.ndarray, eve: adv.EveStrategy, eve_draws: tuple | None, paulis: tuple,
    index=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Carry the delivered pairs through Eve and the noise as drawn.

    The pairs are the rows ``table[index]`` of a state table, every row of
    ``table`` once by default; ``eve_draws`` and ``paulis`` are
    ``TransitDraws`` fields, one entry per pair (see
    ``hyperstate.measure_table``).  Only the pairs a
    Pauli error hits are multiplied.  Returns (the pairs' states after the
    transit as a table of their own, each pair's index into it, Eve's record
    codes or None).
    """
    index = np.arange(len(table)) if index is None else index
    codes = None
    if eve_draws is None:
        used, index = distinct(index, len(table))
        table = table[used]
    else:
        table, index, codes = adv.resend(table, eve, *eve_draws, index)
    # each pair's Paulis as one code, 4 * pol + spa
    noise = sum(4 ** (1 - k) * which for k, which in enumerate(paulis) if which is not None)
    hit = np.flatnonzero(noise)
    if len(hit):
        rows, inverse = map_table(table, index[hit], noise[hit], 16, _noisy)
        index[hit] = len(table) + inverse
        table = np.concatenate([table, rows])
    return table, index, codes


def _noisy(states: np.ndarray, codes: np.ndarray) -> np.ndarray:
    # ``states``, in place, after the Paulis of ``codes`` (4 * pol + spa),
    # the pol one first; a row is multiplied only on a DOF its Pauli hits
    for dof, which in ((Dof.POL, codes >> 2), (Dof.SPA, codes & 3)):
        hit = which.nonzero()[0]
        if len(hit):
            states[hit] = apply_local(states[hit], AXIS[(Photon.A, dof)], PAULIS[which[hit]])
    return states
