"""Lossy, noisy quantum channel for the traveling photon.

Only photon A ever travels, so loss and noise act on its side of the pair
alone.  A transit draws arrays over its photons in this fixed order
(``harness.DrawSource.transit``): loss, the adversary's choices, per-DOF Pauli
noise (probability p split evenly over X, Y and Z), then the receiver's
screening of Trojan probes.  ``protocol._transit`` does the state work that
follows: Eve's resend, then the Paulis (``hyperstate.pauli``).  A lost
photon ends the pair's life; the parties discard the position by classical
announcement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


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
    delivered photons only: Eve's ``adversary.resend`` inputs (None unless
    she intercepts and resends), each photon's screening verdict as its
    index into ``adversary.SCREENS`` (0 where no probe rode along), and its
    Paulis as one code 4 * pol + spa, each DOF's Pauli index 0 for none.
    """

    delivered: np.ndarray
    eve: tuple | None
    screens: np.ndarray
    noise: np.ndarray
