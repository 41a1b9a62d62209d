"""Direct-communication session: block preparation, two checks, coding, readout.

One session moves a block of hyperentangled pairs through a fixed phase
order.  Bob keeps photon B of every pair and sends the photon A sequence
to Alice (first transit).  The parties burn a random sample of delivered
pairs on a correlation check in randomly chosen Z/X bases (first check).
If the error rate is acceptable, Alice writes a random message into the
surviving pairs with the 16 local unitaries, hides a second random sample
behind random unitaries, and returns the photon A sequence (second
transit).  Bob reads every pair with the complete hyper-Bell analyzer,
compares the hidden sample against the ops Alice announces (second
check), and only then decodes the message, 4 bits per pair.

Phases move strictly forward; only the two checks may abort, and a
session that runs out of pairs at a check ends there, aborted and marked
depleted.  Sessions are single-owner mutable state, and every random draw
comes from the group's ``draws.DrawSource``: each phase draws its own
choices, Alice's message included, in a fixed order, as calls of the
source's primitives.  So the session API is one call per protocol step.

Each phase is written once, for a ``SessionGroup`` of sessions that share
one state table, keep their bookkeeping in arrays over the group and move
in lockstep.  Every pair starts in the source state and goes through only
a few discrete choices (bases, outcomes, ops, Paulis), so the table holds
few distinct states, and each phase runs its kernel once per distinct
(state, choice) of the pairs it acts on.  A session run alone is a group of
one.  The phases only fill those arrays; ``transcript_lines`` writes the
transcripts straight from them as JSON text, one line per op a session
went through, with its keys in a fixed order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple, Optional

import numpy as np

from .adversary import (
    PROBED_PHOTONS,
    SCREEN_ALARMED,
    SCREEN_FILTERED,
    TROJAN_KINDS,
    BasisPolicy,
    DefenseConfig,
    EveKind,
    EveStrategy,
    draw_probes,
    resend,
    screen,
)
from .hyperstate import (
    ALL_AXES,
    DIM,
    EncodingOp,
    SourceParams,
    bell_labels_table,
    distinct,
    encode,
    map_table,
    measure_table,
    pauli,
)


class Phase(Enum):
    PREPARED = "Prepared"
    SA_IN_FLIGHT_1 = "SAInFlight1"
    FIRST_CHECK = "FirstCheck"
    ENCODING = "Encoding"
    SA_IN_FLIGHT_2 = "SAInFlight2"
    DECODING = "Decoding"
    SECOND_CHECK = "SecondCheck"
    ACCEPTED = "Accepted"
    ABORTED = "Aborted"


class PairFate(Enum):
    """Where each position of the block ended up."""

    ACTIVE = "active"
    LOST_FORWARD = "lost_forward"
    CONSUMED_CHECK = "consumed_check"
    LOST_RETURN = "lost_return"


# A block stores each row's fate as its index in this tuple; ACTIVE is 0.
FATES = tuple(PairFate)


class Verdict(Enum):
    PASS = "Pass"
    FAIL = "Fail"


class ConfigError(ValueError):
    """A protocol parameter violates its documented bound."""


class BlockDepleted(RuntimeError):
    """Channel loss left too few pairs to run the protocol on."""


def _sample_count(fraction: float, base):
    # round half up, never below one sample; per entry when ``base`` is an array
    return np.maximum(1, np.floor(fraction * base + 0.5)).astype(np.intp)


@dataclass(frozen=True)
class ProtocolConfig:
    """Session parameters; validation happens at construction."""

    n_pairs: int = 64
    sample_fraction_first: float = 0.1
    sample_fraction_second: float = 0.1
    error_threshold: float = 0.05

    def __post_init__(self) -> None:
        if not isinstance(self.n_pairs, (int, np.integer)) or self.n_pairs < 4:
            raise ConfigError(f"n_pairs must be an integer >= 4, got {self.n_pairs}")
        for name in ("sample_fraction_first", "sample_fraction_second"):
            f = getattr(self, name)
            if not 0.0 < f < 1.0:
                raise ConfigError(f"{name} must be strictly between 0 and 1, got {f}")
        if not 0.0 <= self.error_threshold <= 1.0:
            raise ConfigError(
                f"error_threshold must be in [0, 1], got {self.error_threshold}"
            )
        n1 = _sample_count(self.sample_fraction_first, self.n_pairs)
        n2 = _sample_count(self.sample_fraction_second, self.n_pairs)
        if n1 + n2 > self.n_pairs - 1:
            raise ConfigError(
                f"sample fractions leave no message pairs: {n1} + {n2} samples of {self.n_pairs}"
            )


@dataclass(frozen=True)
class ChannelParams:
    """The lossy, noisy channel of the traveling photon A: loss_prob in [0, 1), and per DOF
    the probability in [0, 1] of a Pauli X, Y or Z, each a third of it."""

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


# Codes a group stores: a phase's index in tuple(Phase) per member, a fate's
# index in tuple(PairFate) per pair, and why a depleted member stopped.
_PHASES = tuple(Phase)
_PHASE = {phase: code for code, phase in enumerate(_PHASES)}
_ACTIVE = FATES.index(PairFate.ACTIVE)
_CONSUMED = FATES.index(PairFate.CONSUMED_CHECK)
DEPLETED_FORWARD = 1  # fewer than 3 pairs delivered for the first check
DEPLETED_RETURN = 2  # the whole second-check sample lost on the way back


# Fixed weights of the key that orders table rows before they are compared:
# value-equal rows get equal keys, as +0.0 and -0.0 add alike.
_KEY_WEIGHTS = np.sqrt(np.arange(2.0, 2 * DIM + 2))


@np.errstate(invalid="ignore")  # a non-finite row may make a NaN key
def _merge_equal_rows(table: np.ndarray, index: np.ndarray) -> np.ndarray:
    # ``table`` with the rows equal on all 16 amplitudes (+0.0 == -0.0, and a
    # NaN equals nothing) merged, ``index`` remapped in place if any were; one
    # dot per row, as a matmul may sum a row in an order that depends on where
    # the row falls in the block
    keys = np.vecdot(table.view(float), _KEY_WEIGHTS)
    np.copyto(keys, np.inf, where=np.isnan(keys))  # NaN keys tie with each other
    order = keys.argsort(kind="stable")
    tied = (keys[order[1:]] == keys[order[:-1]]).nonzero()[0] + 1  # ties with the one before
    equal = (table.take(order[tied], axis=0) == table.take(order[tied - 1], axis=0)).all(axis=1)
    if not equal.all():  # in the order of the values, equal rows are neighbours
        order = np.lexsort((table.view(float) + 0.0).T[::-1])  # + 0.0 turns -0.0 into +0.0
        tied = np.arange(1, len(table))
        equal = (table[order[1:]] == table[order[:-1]]).all(axis=1)
    if not equal.any():
        return table
    first = np.ones(len(table), dtype=bool)  # the first row of each run of equal neighbours
    first[tied[equal]] = False
    slot = np.empty_like(order)
    slot[order] = first.cumsum() - 1
    slot.take(index, out=index, mode="clip")
    return table[order[first]]


class SessionGroup:
    """Sessions that go through every phase together, one per generator of ``draws``.

    Every member has ``n_pairs`` pairs, so each per-pair quantity is one
    ``(members, n_pairs)`` array: entry (j, k) is pair k of member j, at
    block row ``j * n_pairs + k``.  The pair states are a state table (see
    ``hyperstate``): ``table`` holds each state value once, and
    ``index[r]`` is the table row of block row r's state.  Every other
    per-pair array is int8 or bool, one byte a pair.

    - ``fates``: each pair's index into ``tuple(PairFate)``; the first-check
      sample is what ``CONSUMED_CHECK`` marks.
    - ``ops``: the op code (``EncodingOp.code``) Alice applied, -1 where none.
    - ``eve[p]``: Eve's record codes of each photon on pass p (0 forward, 1
      return; see ``adversary.resend``), -1 where she did not measure.  A
      pair's four codes are contiguous: ``eve_words`` reads them as one
      4-byte word, which is -1 where she did not take the photon.
    - ``screens[p]``: each photon's Trojan screening verdict on pass p (0
      forward, 1 return) as its index into ``adversary.SCREENS``, 0 for no probe.
    - ``first_reads``: per first-check sample, its outcome code over
      (alice_pol, bob_pol, alice_spa, bob_spa), big-endian, plus 16 for an
      X-basis read of pol and 32 of spa; -1 elsewhere.
    - ``second``: the hidden second-check sample.
    - ``sent``: the 4-bit chunk value written to each message pair, -1 on
      every other pair.
    - ``bell``: the Bell label 4 * pol + spa read from each returned pair,
      -1 elsewhere.  On a message pair it is the chunk value Bob read back,
      which an accepted session releases.

    Per member: ``phases`` (index into ``tuple(Phase)``), ``depleted`` (0, or
    ``DEPLETED_FORWARD`` or ``DEPLETED_RETURN`` for a session that ran out of
    pairs at a check and ended there, aborted), ``counts[j, c]`` =
    (checked, pol errors, spa errors, mismatched samples) and ``failed[j, c]``
    of check c (0 first, 1 second; a check that never ran checked 0).
    ``draws`` (a ``draws.DrawSource``) makes every random draw of the
    members, and ``source`` is the pair source whose state fills every row
    of the block.

    Each phase acts on the members that are in the phase it starts from.  It
    first takes its draws from ``draws``.  Then it maps each acting pair's
    (table row, discrete choice) to a combo, runs the kernel in one call on
    the distinct combos read from ``table``, and does only the per-pair work
    per pair: the draw against the pair's uniform, the bookkeeping and the
    pair's new table row.  Every state change, a transit's too, is one
    ``_update``: it builds the next table from the new states and the rows
    some pair still refers to, one row per value.  As the kernels are
    row-wise, a session's draws, outcomes and transcript never depend on
    which sessions share its group, and a session run alone is a group of one.
    ``harness`` reads every result straight from these arrays, and
    ``transcript_lines`` writes every transcript from them.
    """

    def __init__(self, n_pairs: int, source: SourceParams, draws):
        m, n = len(draws.bits), n_pairs
        self.n_pairs = n
        self.source = source
        self.bounds = np.arange(0, (m + 1) * n, n)  # each member's first block row, then the end
        self.draws = draws
        self.table = np.array([source.amplitudes], dtype=complex)
        self.index = np.zeros(m * n, dtype=np.intp)
        self.fates = np.zeros((m, n), dtype=np.int8)
        self.ops = np.full((m, n), -1, dtype=np.int8)
        self.eve = np.full((2, m, n, 2, 2), -1, dtype=np.int8)
        self.screens = np.zeros((2, m, n), dtype=np.int8)
        self.first_reads = np.full((m, n), -1, dtype=np.int8)
        self.second = np.zeros((m, n), dtype=bool)
        self.sent, self.bell = np.full((2, m, n), -1, dtype=np.int8)
        self.phases, self.depleted = np.zeros((2, m), dtype=np.int8)  # all PREPARED, none depleted
        self.counts = np.zeros((m, 2, 4), dtype=np.intp)
        self.failed = np.zeros((m, 2), dtype=bool)

    def _update(self, pairs: np.ndarray, rows: np.ndarray, index: np.ndarray) -> None:
        # the block rows ``pairs`` move to ``rows[index]``; the table keeps one
        # row of each value some pair refers to: no outcome hangs on a zero's sign
        old = len(self.table)
        self.index[pairs] = old + index
        used, self.index = distinct(self.index, old + len(rows))
        table = np.concatenate([self.table, rows]).take(used, axis=0)
        self.table = _merge_equal_rows(table, self.index)

    @staticmethod
    def eve_words(codes: np.ndarray) -> np.ndarray:
        """Record codes laid out as ``eve``'s, (..., 2, 2) int8, viewed as one int32 word each."""
        return codes.reshape(*codes.shape[:-2], 4).view(np.int32)[..., 0]

    @staticmethod
    def eve_codes(words: np.ndarray) -> np.ndarray:
        """``eve_words`` undone: the (..., 2, 2) int8 record codes of int32 ``words``, a view."""
        return words[..., None].view(np.int8).reshape(*words.shape, 2, 2)

    def in_phase(self, phase: Phase) -> np.ndarray:
        """Mask of the members in ``phase``."""
        return self.phases == _PHASE[phase]

    def _deplete(self, members, reason: int) -> None:
        # a depleted session ends aborted; ``depleted`` says why
        self.phases[members] = _PHASE[Phase.ABORTED]
        self.depleted[members] = reason

    def raise_if_depleted(self, j: int) -> None:
        """Raise the ``BlockDepleted`` error that stopped member ``j``, if it was depleted."""
        if self.depleted[j] == DEPLETED_FORWARD:
            delivered = np.count_nonzero(self.fates[j] == _ACTIVE)
            raise BlockDepleted(
                f"only {delivered} pairs delivered; need 3 to check, sample and encode"
            )
        if self.depleted[j] == DEPLETED_RETURN:
            raise BlockDepleted("no second-check samples survived the return transit")


def _candidates(group: SessionGroup, acting: Optional[np.ndarray] = None) -> tuple:
    """Block rows of the pairs in play, ascending, and where each member's run starts.

    Only the rows of the ``acting`` members, when given.  Member j's rows are
    ``rows[starts[j]:starts[j + 1]]``.
    """
    active = group.fates == _ACTIVE
    rows = (active if acting is None else active & acting[:, None]).ravel().nonzero()[0]
    return rows, rows.searchsorted(group.bounds)


# (no error, pol only, spa only, both) -> (checked, pol errors, spa errors, mismatched)
_TALLY = np.array([[1, 0, 0, 0], [1, 1, 0, 1], [1, 0, 1, 1], [1, 1, 1, 1]])

_CODES = np.arange(16)
# pol error + 2 * spa error of a correlation-check outcome over all four
# axes, (alice_pol, bob_pol, alice_spa, bob_spa) big-endian
_CHECK_ERRORS = ((_CODES >> 3) != ((_CODES >> 2) & 1)) + 2 * (((_CODES >> 1) & 1) != (_CODES & 1))
# the same of a Bell label XOR the op code Alice recorded: the high two bits
# are the pol part, the low two the spa part
_LABEL_ERRORS = (_CODES > 3) + 2 * ((_CODES & 3) > 0)


def _check(group: SessionGroup, check: int, rows: np.ndarray, errors: np.ndarray,
           threshold: float, passed: Phase) -> tuple:
    """Record check ``check`` (0 first, 1 second) of the sample ``rows``, ascending.

    ``errors`` is per row pol error + 2 * spa error.  Every member with
    samples moves on to ``passed``, or to ABORTED when a DOF's error rate
    exceeds ``threshold``.  Returns per member whether it had samples and
    whether it failed, as lists.
    """
    m = len(group.phases)
    kinds = np.bincount(rows // group.n_pairs * 4 + errors, minlength=4 * m)
    counts = kinds.reshape(m, 4) @ _TALLY
    checked = counts[:, 0]
    sampled = checked > 0
    # a member without samples errs on none of them
    failed = np.maximum(counts[:, 1], counts[:, 2]) / np.maximum(checked, 1) > threshold
    group.counts[:, check] += counts
    group.failed[:, check] |= failed
    group.phases[sampled] = _PHASE[passed]
    group.phases[failed] = _PHASE[Phase.ABORTED]
    return sampled.tolist(), failed.tolist()


_NO_EVE = EveStrategy()
_NO_DEFENSE = DefenseConfig()

# direction -> (pass index, phase before, phase in flight, phase on arrival,
# fate of a photon lost on the way)
_TRANSITS = {
    "forward": (0, Phase.PREPARED, Phase.SA_IN_FLIGHT_1, Phase.FIRST_CHECK, PairFate.LOST_FORWARD),
    "return": (1, Phase.SA_IN_FLIGHT_2, Phase.SA_IN_FLIGHT_2, Phase.DECODING, PairFate.LOST_RETURN),
}

# The chunk of photons in which a session draws its transits: a session of
# more pairs draws one chunk after another, in the order that fixes its
# random numbers and so its output bytes.
CHUNK_ROWS = 1024


class TransitDraws(NamedTuple):
    """Every random choice of one transit of n photons, drawn before any state work.

    ``delivered`` is the (n,) loss mask.  The other fields cover the
    delivered photons only: Eve's ``adversary.resend`` inputs (None unless
    she intercepts and resends), each photon's screening verdict as its
    index into ``adversary.SCREENS`` (0 where no probe rode along), and its
    Paulis as one code 4 * pol + spa, each DOF's Pauli index 0 for none.
    Every field but ``eve`` is an array also where nothing was drawn for
    it: all delivered at no loss, all 0 without probes or without noise.
    """

    delivered: np.ndarray
    eve: tuple | None
    screens: np.ndarray
    noise: np.ndarray


def _per_member(rows: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """How many of the ascending ``rows`` fall in member i's range ``bounds[i]:bounds[i + 1]``."""
    return np.diff(np.searchsorted(rows, bounds))


def transit_draws(draws, members, starts, params: ChannelParams, eve: EveStrategy,
                  defense: DefenseConfig) -> TransitDraws:
    """A transit's choices from the ``DrawSource`` ``draws``; probes tuned to ``defense``.

    A member draws its photons ``CHUNK_ROWS`` at a time, chunk after
    chunk.  Where a chunk draws all its numbers in one call (Eve's choices
    alone), one round draws every chunk; otherwise round r draws chunk r
    of every member that has one, and the rounds' draws are put in member
    order at the end.  A field that nothing draws into keeps its constant
    (all delivered, no Pauli, no probe).
    """
    members, starts = np.asarray(members, dtype=np.intp), np.asarray(starts)
    sizes = (starts[1:] - starts[:-1])[members]
    slots = len(eve.dof_mask) if eve.kind is EveKind.INTERCEPT_RESEND else 0
    # each chunk's member (its position in ``members``), index there and photons
    chunks = -(-sizes // CHUNK_ROWS)
    owner = np.repeat(np.arange(len(members)), chunks)
    index = np.arange(len(owner)) - np.repeat(np.cumsum(chunks) - chunks, chunks)
    n = np.minimum(sizes[owner] - CHUNK_ROWS * index, CHUNK_ROWS)
    one_call = not (params.loss_prob or params.pauli_p_pol or params.pauli_p_spa
                    or eve.kind in TROJAN_KINDS)
    rounds = [] if one_call else [index == r for r in range(int(chunks.max(initial=0)))]
    rounds = rounds or [slice(None)]
    parts = [_transit_chunk(draws, members[owner[r]], n[r], params, eve, defense, slots)
             for r in rounds]
    delivered, kept, x, u, screens, noise = parts[0]
    if len(parts) > 1:  # member order: a stable sort keeps each member's chunks in order
        delivered, kept, x, u, screens, noise = map(np.concatenate, zip(*parts))
        owner = np.concatenate([owner[r] for r in rounds])
        sent = np.repeat(owner, np.concatenate([n[r] for r in rounds]))
        sent = np.argsort(sent, kind="stable")
        kept = np.argsort(np.repeat(owner, kept), kind="stable")
        delivered, x, screens, noise = delivered[sent], x[kept], screens[kept], noise[kept]
        u = u[kept] if slots else u
    return TransitDraws(delivered, (x, u) if slots else None, screens, noise)


def _transit_chunk(draws, units: np.ndarray, n: np.ndarray, params: ChannelParams,
                   eve: EveStrategy, defense: DefenseConfig, slots: int) -> tuple:
    """One chunk of ``n[i]`` photons of each ``units[i]``, drawn in the channel's order.

    Loss, Eve's X-basis coins and uniforms, Trojan probes, per-DOF Pauli
    noise (a hit, then which of X, Y and Z), then the receiver's screening.
    Returns (delivered, photons delivered per unit, Eve's X mask, her
    uniforms, screens, Pauli noise), the last four over the delivered photons.
    """
    site = "transit"
    if params.loss_prob > 0.0:
        delivered = draws.uniforms(site, units, n) >= params.loss_prob
        n = _per_member(delivered.nonzero()[0], np.concatenate([[0], np.cumsum(n)]))
    else:
        delivered = np.ones(n.sum(), dtype=bool)
    bounds = np.concatenate([[0], np.cumsum(n)])
    probes = eve.kind in TROJAN_KINDS
    zx = slots and eve.basis_policy is BasisPolicy.UNIFORM_ZX
    blocks = {"x": n * slots} if zx else {}
    if slots:
        blocks["u"] = n
    if params.pauli_p_pol > 0.0 and not probes:  # probes draw between these and the noise
        blocks["pol"] = n
    drawn = draws.blocks(site, units, blocks, coins=("x",))  # X where below 1/2
    x = (drawn.pop("x").reshape(-1, slots) if zx
         else np.full((bounds[-1], slots), eve.basis_policy is BasisPolicy.FIXED_X))
    if probes:
        offsets = draw_probes(
            eve.kind, bounds[-1],
            lambda shape: draws.uniforms(site, units, n * math.prod(shape[1:])).reshape(shape),
            defense.filter_tolerance)
    noise = np.zeros(bounds[-1], dtype=np.intp)
    spa = params.pauli_p_spa > 0.0
    u_spa = None
    if params.pauli_p_pol > 0.0:
        u_pol = drawn["pol"] if "pol" in drawn else draws.uniforms(site, units, n)
        hit = (u_pol < params.pauli_p_pol).nonzero()[0]
        # the Pauli kind of each pol hit, then the spa uniforms, in one call
        kinds, u_spa = draws.integers(site, units, _per_member(hit, bounds), 3,
                                      n if spa else None)
        noise[hit] += 4 * (1 + kinds.astype(np.intp))
    if spa:
        if u_spa is None:
            u_spa = draws.uniforms(site, units, n)
        hit = (u_spa < params.pauli_p_spa).nonzero()[0]
        kinds, _ = draws.integers(site, units, _per_member(hit, bounds), 3)
        noise[hit] += 1 + kinds.astype(np.intp)
    screens = np.zeros(bounds[-1], dtype=np.int8)
    if probes:
        screens = screen(offsets, np.full(bounds[-1], PROBED_PHOTONS), defense,
                         lambda rows: draws.uniforms(site, units, _per_member(rows, bounds)))
    return delivered, n, x, drawn.get("u", np.empty(0)), screens, noise


def _transit(
    group: SessionGroup,
    params: ChannelParams,
    eve: EveStrategy,
    defense: DefenseConfig,
    direction: str,
) -> None:
    """Carry the photons of the members in the phase before ``direction`` through the channel.

    In the channel's order: loss, Eve's resend of the delivered photons,
    then the Pauli noise on the photons it hits, each state change one
    ``SessionGroup._update``; the screening verdicts are recorded as drawn.
    The loss, screening and noise passes are skipped where they cannot
    change anything: at loss or noise probability 0, and without probes.
    A lost photon ends its pair's life; the parties discard the position
    by classical announcement.
    """
    pass_index, before, _, arrival, lost_fate = _TRANSITS[direction]
    acting = group.in_phase(before)
    members = acting.nonzero()[0]
    # a quiet channel without an adversary delivers every photon unchanged
    quiet = eve.kind is EveKind.NONE and not (
        params.loss_prob or params.pauli_p_pol or params.pauli_p_spa
    )
    if len(members) and not quiet:
        rows, starts = _candidates(group, acting)  # block rows of the photons sent
        drawn = transit_draws(group.draws, members, starts, params, eve, defense)
        if params.loss_prob:
            group.fates.reshape(-1)[rows[~drawn.delivered]] = FATES.index(lost_fate)
            rows = rows[drawn.delivered]
        if eve.kind in TROJAN_KINDS:
            # a caught probe is stripped; the legitimate photon continues
            group.screens[pass_index].reshape(-1)[rows] = drawn.screens
        if drawn.eve is not None:
            states, index, codes = resend(group.table, eve, *drawn.eve, group.index[rows])
            group._update(rows, states, index)
            group.eve_words(group.eve[pass_index]).reshape(-1)[rows] = group.eve_words(codes)
        if params.pauli_p_pol or params.pauli_p_spa:
            hit = drawn.noise.nonzero()[0]
            if len(hit):
                rows = rows[hit]
                group._update(rows, *map_table(
                    group.table, group.index[rows], drawn.noise[hit], DIM, pauli
                ))
    group.phases[members] = _PHASE[arrival]


def transmit_forward_group(
    group: SessionGroup,
    params: ChannelParams,
    eve: Optional[EveStrategy] = None,
    defense: Optional[DefenseConfig] = None,
) -> None:
    """Send every active photon A of every session from Bob to Alice; defenses act on arrival."""
    _transit(group, params, eve or _NO_EVE, defense or _NO_DEFENSE, "forward")


def transmit_return_group(
    group: SessionGroup,
    params: ChannelParams,
    eve: Optional[EveStrategy] = None,
) -> None:
    """Send the encoded photons back from Alice to Bob (no receiver defenses)."""
    _transit(group, params, eve or _NO_EVE, _NO_DEFENSE, "return")


def first_check_group(group: SessionGroup, cfg: ProtocolConfig) -> None:
    """Correlation check on a random sample of each session's delivered pairs.

    Alice draws the sample and a uniform Z/X basis per DOF for each pair,
    measures her photon, announces everything, and Bob measures his photon
    in the same bases.  Checked pairs are consumed either way.  A session
    with fewer than 3 delivered pairs is marked ``DEPLETED_FORWARD`` and
    left otherwise untouched.
    """
    acting = group.in_phase(Phase.FIRST_CHECK)
    candidates, starts = _candidates(group)  # a member draws from its own rows only
    members = acting.nonzero()[0]
    sizes = np.diff(starts)[members]
    ready = sizes >= 3
    group._deplete(members[~ready], DEPLETED_FORWARD)
    sizes = sizes[ready]
    ks = np.minimum(_sample_count(cfg.sample_fraction_first, sizes), sizes - 2)
    if not len(ks):
        return
    picks, _, u = group.draws.sample("first_check", members[ready], starts, ks, uniforms=3)
    # a member's 3k uniforms are 2k basis uniforms, then k Born uniforms
    if (ks == ks[0]).all():
        u = u.reshape(len(ks), -1)
        bases, born = u[:, : 2 * ks[0]], u[:, 2 * ks[0] :]
    else:
        basis = np.arange(len(u)) < np.repeat(3 * np.cumsum(ks) - ks, 3 * ks)
        bases, born = u[basis], u[~basis]
    rows = np.sort(candidates[picks])
    x = bases.reshape(-1, 2) < 0.5
    # one 16-outcome draw per sample reads (alice_pol, bob_pol, alice_spa, bob_spa)
    outcomes, _ = measure_table(group.table, group.index[rows], ALL_AXES, born.ravel(),
                                x[:, [0, 0, 1, 1]], collapse=False)
    _check(group, 0, rows, _CHECK_ERRORS[outcomes], cfg.error_threshold, Phase.ENCODING)
    group.fates.reshape(-1)[rows] = _CONSUMED
    group.first_reads.reshape(-1)[rows] = outcomes + 16 * x[:, 0] + 32 * x[:, 1]


# weights that turn a row of four message bits into its chunk's value; int8,
# so that int8 bits make int8 chunks
_CHUNK_WEIGHTS = np.array([8, 4, 2, 1], dtype=np.int8)


def encode_group(group: SessionGroup, cfg: ProtocolConfig) -> None:
    """Alice writes a random message into each session and hides its second-check sample.

    Each member ready to encode draws its message, ``integers(0, 2, size=bits)``
    with 4 bits per pair left beside its second-check sample, then that
    sample and per sample pair an op uniform over all 16, recorded for the
    comparison after readout.  Message pairs get the op named by the next
    4-bit chunk.  A member with fewer than 2 pairs left raises
    ``BlockDepleted`` before any member draws.
    """
    acting = group.in_phase(Phase.ENCODING)
    members = acting.nonzero()[0]
    sizes = np.count_nonzero(group.fates[members] == _ACTIVE, axis=1)
    short = sizes[sizes < 2]
    if len(short):
        raise BlockDepleted(f"only {short[0]} pairs left; need 2 to sample and encode")
    if not len(members):
        return
    # counted on the pairs left plus the first sample, but never all of them
    base = sizes + group.counts[members, 0, 0]
    n_second = np.minimum(_sample_count(cfg.sample_fraction_second, base), sizes - 1)
    # drawn before the candidate rows take their memory: chunk k of the messages, joined in
    # member order, goes to message row k, and its value is the code of the op that carries it
    chunks = (group.draws.integers("message", members, 4 * (sizes - n_second), 2)[0]
              .astype(np.int8).reshape(-1, 4) @ _CHUNK_WEIGHTS)
    candidates, starts = _candidates(group, acting)
    picks, sample_ops, _ = group.draws.sample("hidden_sample", members, starts, n_second, 16)
    second = np.sort(candidates[picks])
    is_second = group.second.reshape(-1)
    is_second[second] = True
    message_rows = candidates[~is_second[candidates]]
    ops = group.ops.reshape(-1)
    ops[message_rows] = chunks
    ops[second] = sample_ops
    group.sent.reshape(-1)[message_rows] = chunks
    # ``ops`` and ``sent`` hold the messages now; free them before the kernel runs
    del chunks, message_rows
    group._update(candidates, *map_table(
        group.table, group.index[candidates], ops[candidates], DIM, encode
    ))
    group.phases[members] = _PHASE[Phase.SA_IN_FLIGHT_2]


def decode_group(group: SessionGroup, cfg: ProtocolConfig) -> None:
    """Bob reads every returned pair, verifies the hidden sample, then decodes.

    Readout is a complete hyper-Bell analysis per pair.  Alice announces
    the sample positions and ops; a Bell label differing from the recorded
    op's image counts one error per disagreeing DOF.  Only a passing block
    releases the message; a failing one is withheld entirely.  A session
    whose whole second-check sample was lost is marked ``DEPLETED_RETURN``.
    """
    acting = group.in_phase(Phase.DECODING)
    members = acting.nonzero()[0]
    if not len(members):
        return
    group.phases[members] = _PHASE[Phase.SECOND_CHECK]
    rows, starts = _candidates(group, acting)
    u = group.draws.uniforms("bell", members, np.diff(starts)[members])  # one per pair in play
    labels = bell_labels_table(group.table, group.index[rows], u)
    group.bell.reshape(-1)[rows] = labels
    in_sample = group.second.reshape(-1)[rows]
    sample_rows = rows[in_sample]
    got = labels[in_sample]
    expected = group.ops.reshape(-1)[sample_rows]  # an op code is the flat label it encodes
    checked, failed = _check(group, 1, sample_rows, _LABEL_ERRORS[got ^ expected],
                             cfg.error_threshold, Phase.ACCEPTED)
    lost_sample = [j for j in members.tolist() if not checked[j]]
    if lost_sample:
        group._deplete(lost_sample, DEPLETED_RETURN)


# ---------------------------------------------------------------------------
# transcripts
# ---------------------------------------------------------------------------

# a chunk value's four bits as message text
_CHUNK_TEXT = np.array([f"{value:04b}" for value in range(16)], dtype=object)
# each op code's name as a JSON string
_OP_TEXTS = np.array([f'"{op.i}{op.j}"' for op in map(EncodingOp.from_code, range(16))], object)
# bit shifts that split a first-check reading (see ``SessionGroup``) into
# the rows pol basis, spa basis, alice_pol, alice_spa, bob_pol, bob_spa
_READ_SHIFTS = np.array([[4], [5], [3], [1], [2], [0]])
# bit shifts that split flat Bell labels 4 * p + s into the rows p, s
_BELL_SHIFTS = np.array([[2], [0]])


def _bits_text(chunks: np.ndarray) -> str:
    return "".join(_CHUNK_TEXT.take(chunks).tolist())


def _texts(alphabet: bytes, codes: np.ndarray) -> list[str]:
    """Per row r of the 2-D ``codes``, the string of the characters ``alphabet[codes[r, k]]``."""
    table = bytes.maketrans(bytes(range(len(alphabet))), alphabet)
    return [row.astype(np.uint8).tobytes().translate(table).decode("ascii") for row in codes]


@lru_cache(maxsize=1)
def _numbers(n: int) -> np.ndarray:
    # the texts of 0 .. n - 1, to take positions from; only the latest n is
    # kept, as a 100,004-pair session's texts take 5.9 MiB
    return np.array([str(i) for i in range(n)], dtype=object)


def _runs(mask: np.ndarray, members, *columns) -> list[list[str]]:
    """Per member (row of the 2-D ``mask``) of ``members``, the JSON text of: the positions it
    sets, ascending, then its run of each of ``columns``, which hold one item per set entry of
    ``mask`` in row-major order (a str runs as a JSON string, a list of JSON texts as a list)."""
    if not mask.any():
        return [['""' if isinstance(column, str) else "[]"] * len(members)
                for column in ((), *columns)]
    stops = list(accumulate(np.count_nonzero(mask, axis=1).tolist()))
    spans = [(stops[j - 1] if j else 0, stops[j]) for j in members]
    positions = _numbers(mask.shape[1]).take(mask.nonzero()[1]).tolist()
    return [[f'"{column[a:b]}"' for a, b in spans] if isinstance(column, str)
            else ["[" + ", ".join(column[a:b]) + "]" for a, b in spans]
            for column in (positions, *columns)]


def _report(counts: list, failed: bool) -> str:
    """A check's counts, error rates and verdict as JSON text, closing its event."""
    n, pol, spa, mism = counts
    verdict = Verdict.FAIL if failed else Verdict.PASS
    return (f'"n_checked": {n}, "n_pol_errors": {pol}, "n_spa_errors": {spa}, '
            f'"n_mismatched_samples": {mism}, "error_rate_pol": {pol / n!r}, '
            f'"error_rate_spa": {spa / n!r}, "verdict": "{verdict.value}"}}\n')


def _transit_texts(group: SessionGroup, members, direction: str) -> list[str]:
    """Per member, its transit event in ``direction`` as text after ``"event": ``."""
    pass_index, _, in_flight, arrival, lost_fate = _TRANSITS[direction]
    words = group.eve_words(group.eve[pass_index])
    screens = group.screens[pass_index]
    taken = words != -1  # Eve reads some DOF of every photon she takes
    codes = group.eve_codes(words[taken]) + 1
    intercepted, pol_bases, spa_bases, pol_outcomes, spa_outcomes = _runs(
        taken, members, *_texts(b"-ZX", codes[:, :, 0].T), *_texts(b"-01", codes[:, :, 1].T)
    )
    gone = group.fates == FATES.index(lost_fate)
    [lost], [trojan], [filtered], [alarmed] = (_runs(mask, members) for mask in (
        gone, screens > 0, screens == SCREEN_FILTERED, screens == SCREEN_ALARMED))
    head = (f'"transit", "phase": "{in_flight.value}", "to_phase": "{arrival.value}", '
            f'"direction": "{direction}", "lost_positions": ')
    return [f'{head}{lost[i]}, "intercepted_positions": {intercepted[i]}, '
            f'"eve_pol_bases": {pol_bases[i]}, "eve_pol_outcomes": {pol_outcomes[i]}, '
            f'"eve_spa_bases": {spa_bases[i]}, "eve_spa_outcomes": {spa_outcomes[i]}, '
            f'"trojan_positions": {trojan[i]}, "filtered_positions": {filtered[i]}, '
            f'"alarmed_positions": {alarmed[i]}}}\n' for i in range(len(lost))]


def transcript_lines(group: SessionGroup, members, sessions) -> str:
    """The JSONL transcripts of ``members``, read off the group's arrays: one line per event.

    A member's events, as far as it got: prepare, the forward transit, the first check (then
    a result, when it failed), encode, the return transit, the second check and the result;
    none from a check it was depleted at.  Member j's lines are ``json.dumps({"session":
    sessions[j], **event})`` of its events: one template per event kind fixes their keys and
    spells out the ``Phase`` values that do not vary.
    """
    sampled = group.first_reads >= 0
    reads = (group.first_reads[sampled] >> _READ_SHIFTS) & 1
    checked, pol_bases, spa_bases, alice_pol, alice_spa, bob_pol, bob_spa = _runs(
        sampled, members, *_texts(b"ZX", reads[:2]), *_texts(b"01", reads[2:])
    )
    message, second = group.sent >= 0, group.second
    ops = _OP_TEXTS[group.ops]  # -1 (no op) takes the last name, which no mask below reads
    message_positions, message_ops = _runs(message, members, ops[message].tolist())
    sample_positions, sample_ops = _runs(second, members, ops[second].tolist())
    read = group.bell >= 0
    samples = read & second
    read_positions, bell_pol, bell_spa = _runs(
        read, members, *_texts(b"0123", (group.bell[read] >> _BELL_SHIFTS) & 3)
    )
    read_samples, expected_ops = _runs(samples, members, ops[samples].tolist())
    forward, back = (_transit_texts(group, members, way) for way in ("forward", "return"))
    counts, failed, phases = group.counts.tolist(), group.failed.tolist(), group.phases.tolist()
    prepare = (f'"prepare", "phase": "Prepared", "n_pairs": {group.n_pairs}, "source_r": '
               f'{float(group.source.r)!r}, "source_phi": {float(group.source.phi)!r}}}\n')
    lines = []
    for i, j in enumerate(members):
        phase = _PHASES[phases[j]]
        lead = f'{{"session": {sessions[j]}, "event": '
        lines += (lead, prepare)
        if phase is not Phase.PREPARED:
            lines += (lead, forward[i])
        if checked[i] != "[]":
            lines.append(
                f'{lead}"first_check", "phase": "FirstCheck", '
                f'"to_phase": "{"Aborted" if failed[j][0] else "Encoding"}", '
                f'"positions": {checked[i]}, "pol_bases": {pol_bases[i]}, '
                f'"spa_bases": {spa_bases[i]}, "alice_pol": {alice_pol[i]}, '
                f'"alice_spa": {alice_spa[i]}, "bob_pol": {bob_pol[i]}, "bob_spa": {bob_spa[i]}, '
                f'{_report(counts[j][0], failed[j][0])}')
        if failed[j][0]:
            lines += (lead, '"result", "phase": "Aborted", "message": null}\n')
        if sample_positions[i] != "[]":
            lines.append(
                f'{lead}"encode", "phase": "Encoding", "to_phase": "SAInFlight2", '
                f'"message_positions": {message_positions[i]}, "message_ops": {message_ops[i]}, '
                f'"sample_positions": {sample_positions[i]}, "sample_ops": {sample_ops[i]}}}\n')
            if phase is not Phase.SA_IN_FLIGHT_2:
                lines += (lead, back[i])
        if read_samples[i] != "[]":
            received = group.bell[j][message[j] & read[j]]
            text = f'"{_bits_text(received)}"' if phase is Phase.ACCEPTED else "null"
            lines.append(
                f'{lead}"second_check", "phase": "SecondCheck", "to_phase": "{phase.value}", '
                f'"positions": {read_positions[i]}, "bell_pol": {bell_pol[i]}, '
                f'"bell_spa": {bell_spa[i]}, "sample_positions": {read_samples[i]}, '
                f'"expected_ops": {expected_ops[i]}, {_report(counts[j][1], failed[j][1])}'
                f'{lead}"result", "phase": "{phase.value}", "message": {text}}}\n')
    return "".join(lines)

