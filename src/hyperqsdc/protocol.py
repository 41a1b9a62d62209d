"""Direct-communication session: block preparation, two checks, coding, readout.

One session moves a block of hyperentangled pairs through a fixed phase
order.  Bob keeps photon B of every pair and sends the photon A sequence
to Alice (first transit).  The parties burn a random sample of delivered
pairs on a correlation check in randomly chosen Z/X bases (first check).
If the error rate is acceptable, Alice writes her message into the
surviving pairs with the 16 local unitaries, hides a second random sample
behind random unitaries, and returns the photon A sequence (second
transit).  Bob reads every pair with the complete hyper-Bell analyzer,
compares the hidden sample against the ops Alice announces (second
check), and only then decodes the message, 4 bits per pair.

Phases move strictly forward; only the two checks may abort, and a
session that runs out of pairs at a check ends there, aborted and marked
depleted.  Sessions are single-owner mutable state, and all randomness
flows through explicit generators.  Every op appends one event to the
session's transcript, when it keeps one, with a stable field order.

Each phase is written once, for a ``SessionGroup`` of sessions that share
one block of rows, keep their bookkeeping in arrays over the group and
move in lockstep.  The single-session functions (``transmit_forward``,
``first_check``, ...) run it on a group of one, read through a
``SessionState`` view, and return that view (or a report).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cache, cached_property
from itertools import accumulate
from typing import Optional

import numpy as np

from . import channel as chn
from .adversary import DefenseConfig, DefenseVerdict, EveKind, EveStrategy, apply_defenses
from .hyperstate import (
    ALL_AXES,
    DIM,
    EncodingOp,
    SourceParams,
    bell_labels,
    encode,
    measure,
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
_FATES = tuple(PairFate)


class Verdict(Enum):
    PASS = "Pass"
    FAIL = "Fail"


class ConfigError(ValueError):
    """A protocol parameter violates its documented bound."""


class PhaseError(RuntimeError):
    """An operation was called outside its phase."""


class MessageSizeError(ValueError):
    """The message does not match the block's bit capacity."""


class BlockDepleted(RuntimeError):
    """Channel loss left too few pairs to run the protocol on."""


def normative_bits_mapping() -> dict[EncodingOp, str]:
    """Default op <-> bits table: (i-1) as the high two bits, (j-1) as the low."""
    return {
        EncodingOp(i, j): f"{i - 1:02b}{j - 1:02b}" for i in (1, 2, 3, 4) for j in (1, 2, 3, 4)
    }


def _sample_count(fraction: float, base: int) -> int:
    # round half up, never below one sample
    return max(1, math.floor(fraction * base + 0.5))


# Rows per kernel call.  Whole-block temporaries of a 10^5-pair block would
# cost several times the block itself; a chunk's temporaries take about 1 MB.
CHUNK_ROWS = 1024


def _chunks(n: int) -> list[slice]:
    return [slice(start, start + CHUNK_ROWS) for start in range(0, n, CHUNK_ROWS)]


@dataclass(frozen=True)
class ProtocolConfig:
    """Session parameters; validation happens at construction."""

    n_pairs: int = 64
    sample_fraction_first: float = 0.1
    sample_fraction_second: float = 0.1
    error_threshold: float = 0.05
    bits_mapping: dict = field(default_factory=normative_bits_mapping)

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
        if len(self.bits_mapping) != 16 or len(set(self.bits_mapping.values())) != 16:
            raise ConfigError("bits_mapping must map the 16 ops to 16 distinct chunks")
        for op, bits in self.bits_mapping.items():
            if len(bits) != 4 or set(bits) - {"0", "1"}:
                raise ConfigError(f"bits_mapping chunk for {op} is not a 4-bit string: {bits!r}")
        n1 = _sample_count(self.sample_fraction_first, self.n_pairs)
        n2 = _sample_count(self.sample_fraction_second, self.n_pairs)
        if n1 + n2 > self.n_pairs - 1:
            raise ConfigError(
                f"sample fractions leave no message pairs: {n1} + {n2} samples of {self.n_pairs}"
            )

    @cached_property
    def op_of_chunk(self) -> np.ndarray:
        """Encoder table: the op code ``bits_mapping`` gives each 4-bit chunk value."""
        table = np.empty(16, dtype=np.intp)
        for op, chunk in self.bits_mapping.items():
            table[int(chunk, 2)] = op.code
        return table

    @cached_property
    def chunk_of_op(self) -> np.ndarray:
        """Decoder table: the 4-bit chunk value ``bits_mapping`` gives each op code."""
        table = np.empty(16, dtype=np.int8)
        table[self.op_of_chunk] = np.arange(16)
        return table


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one eavesdropping check."""

    n_checked: int
    n_pol_errors: int
    n_spa_errors: int
    n_mismatched_samples: int
    error_rate_pol: float
    error_rate_spa: float
    verdict: Verdict

    @staticmethod
    def from_counts(counts: list, failed: bool) -> "CheckReport":
        """The report on (checked, pol errors, spa errors, mismatched samples) with its verdict."""
        n, pol, spa, mism = counts
        verdict = Verdict.FAIL if failed else Verdict.PASS
        return CheckReport(n, pol, spa, mism, pol / n, spa / n, verdict)

    def fields(self) -> dict:
        """The report as transcript fields, in declaration order."""
        return {**vars(self), "verdict": self.verdict.value}


# Codes a group stores: a phase's index in tuple(Phase) per member, a fate's
# index in tuple(PairFate) per pair, and why a depleted member stopped.
_PHASES = tuple(Phase)
_PHASE = {phase: code for code, phase in enumerate(_PHASES)}
_ACTIVE = _FATES.index(PairFate.ACTIVE)
_CONSUMED = _FATES.index(PairFate.CONSUMED_CHECK)
DEPLETED_FORWARD = 1  # fewer than 3 pairs delivered for the first check
DEPLETED_RETURN = 2  # the whole second-check sample lost on the way back


class SessionGroup:
    """Sessions that go through every phase together; create it with ``prepare_group``.

    Every member has ``n_pairs`` pairs, so each per-pair quantity is one
    ``(members, n_pairs)`` array: entry (j, k) is pair k of member j, whose
    16 amplitudes are row ``j * n_pairs + k`` of ``states``.

    - ``fates``: each pair's index into ``tuple(PairFate)``; the first-check
      sample is what ``CONSUMED_CHECK`` marks.
    - ``ops``: the op code (``EncodingOp.code``) Alice applied, -1 where none.
    - ``eve_forward``, ``eve_return``: Eve's record codes of each pass
      (``EveRecord.from_codes``), -1 where she did not measure.
    - ``second``: the hidden second-check sample.
    - ``sent``: the 4-bit chunk value written to each message pair, -1 on
      every other pair; ``received``: the value Bob read back from it, on
      the pairs of accepted sessions only.

    Per member: ``phases`` (index into ``tuple(Phase)``), ``depleted`` (0, or
    ``DEPLETED_FORWARD`` or ``DEPLETED_RETURN`` for a session that ran out of
    pairs at a check and ended there, aborted), ``counts[j, c]`` =
    (checked, pol errors, spa errors, mismatched samples) and ``failed[j, c]``
    of check c (0 first, 1 second; a check that never ran checked 0),
    ``screened[j]`` = (Trojan signals, filtered, PNS alarms), and
    ``transcripts[j]``, the event list, when recording.  ``rngs[j]`` is the
    only generator member j draws from.

    Each phase acts on the members that are in the phase it starts from.  It
    first draws member by member, in the order and sizes of the session run
    alone, and then does its state work and bookkeeping in one array pass
    over the group, at most ``CHUNK_ROWS`` rows per kernel call.  So a
    session's draws, outcomes and transcript never depend on which sessions
    share its group.  ``harness.run`` reads these arrays; ``SessionState``
    views of a member exist only for the single-session API.
    """

    def __init__(self, n_pairs: int, rngs: list, record: bool):
        m, n = len(rngs), n_pairs
        self.n_pairs = n
        self.bounds = np.arange(0, (m + 1) * n, n)  # each member's first block row, then the end
        self.rngs = list(rngs)
        self.states = np.empty((m * n, DIM), dtype=complex)
        self.fates = np.zeros((m, n), dtype=np.int8)
        self.ops = np.full((m, n), -1, dtype=np.intp)
        self.eve_forward, self.eve_return = np.full((2, m, n, 2, 2), -1, dtype=np.int8)
        self.second = np.zeros((m, n), dtype=bool)
        self.sent, self.received = np.full((2, m, n), -1, dtype=np.int8)
        self.phases, self.depleted = np.zeros((2, m), dtype=np.int8)  # all PREPARED, none depleted
        self.counts = np.zeros((m, 2, 4), dtype=np.intp)
        self.failed = np.zeros((m, 2), dtype=bool)
        self.screened = np.zeros((m, 3), dtype=np.intp)
        self.transcripts: Optional[list] = [[] for _ in range(m)] if record else None

    def in_phase(self, phase: Phase) -> np.ndarray:
        """Mask of the members in ``phase``."""
        return self.phases == _PHASE[phase]

    def _deplete(self, members, reason: int) -> None:
        # a depleted session ends aborted; ``depleted`` says why
        self.phases[members] = _PHASE[Phase.ABORTED]
        self.depleted[members] = reason

    def _log(self, j: int, **fields) -> None:
        self.transcripts[j].append(fields)


def prepare_group(
    cfg: ProtocolConfig,
    source: SourceParams,
    rngs: list,
    record: bool = True,
) -> SessionGroup:
    """One session per generator; Bob's source fills every row of the shared block.

    ``record`` keeps a transcript per session.
    """
    group = SessionGroup(cfg.n_pairs, rngs, record)
    group.states[:] = source.amplitudes
    for j in range(len(rngs)) if record else ():
        group._log(
            j,
            event="prepare",
            phase=Phase.PREPARED.value,
            n_pairs=cfg.n_pairs,
            source_r=float(source.r),
            source_phi=float(source.phi),
        )
    return group


# a chunk value's four bits as message text
_CHUNK_TEXT = tuple(f"{value:04b}" for value in range(16))


def _bits_text(chunks: np.ndarray) -> str:
    return "".join([_CHUNK_TEXT[c] for c in chunks.tolist()])


class SessionState:
    """One session, read from member ``j`` of a ``SessionGroup``; create it with ``prepare_block``.

    Only the single-session API (``prepare_block`` ... ``decode_and_second_check``
    and ``harness.run_one_session``) and transcript writing build these.
    Every field is computed from the group's arrays when read; the array
    fields are views of them.
    """

    __slots__ = ("group", "j")

    def __init__(self, group: SessionGroup, j: int = 0):
        self.group = group
        self.j = j

    @property
    def phase(self) -> Phase:
        return _PHASES[self.group.phases[self.j]]

    @property
    def transcript(self) -> Optional[list]:
        return None if self.group.transcripts is None else self.group.transcripts[self.j]

    @property
    def fate(self) -> list[PairFate]:
        """Where each position of the block ended up."""
        return [_FATES[k] for k in self.group.fates[self.j].tolist()]

    def active(self) -> np.ndarray:
        """Positions still in play, ascending."""
        return (self.group.fates[self.j] == _ACTIVE).nonzero()[0]

    @property
    def first_sample_positions(self) -> list:
        return (self.group.fates[self.j] == _CONSUMED).nonzero()[0].tolist()

    @property
    def second_sample_positions(self) -> list:
        return self.group.second[self.j].nonzero()[0].tolist()

    @property
    def message_positions(self) -> list:
        """Message pairs, ascending; chunk k of the message went to the k-th."""
        return (self.group.sent[self.j] >= 0).nonzero()[0].tolist()

    def _report(self, check: int) -> Optional[CheckReport]:
        counts = self.group.counts[self.j, check].tolist()
        if not counts[0]:
            return None
        return CheckReport.from_counts(counts, self.group.failed[self.j, check])

    @property
    def first_report(self) -> Optional[CheckReport]:
        return self._report(0)

    @property
    def second_report(self) -> Optional[CheckReport]:
        return self._report(1)

    @property
    def surviving_message_positions(self) -> list:
        """Message pairs read back from a passing block; empty otherwise."""
        if self.phase is not Phase.ACCEPTED:
            return []
        return (self.group.received[self.j] >= 0).nonzero()[0].tolist()

    @property
    def decoded_message(self) -> Optional[str]:
        """The bits read back from a passing block; None otherwise."""
        if self.phase is not Phase.ACCEPTED:
            return None
        received = self.group.received[self.j]
        return _bits_text(received[received >= 0])

    @property
    def sent_message(self) -> Optional[str]:
        """The bits Alice wrote into the block; None before encoding."""
        sent = self.group.sent[self.j]
        return _bits_text(sent[sent >= 0]) if (sent >= 0).any() else None

    def raise_if_depleted(self) -> None:
        """Raise the ``BlockDepleted`` error that stopped a depleted session."""
        reason = self.group.depleted[self.j]
        if reason == DEPLETED_FORWARD:
            raise BlockDepleted(
                f"only {len(self.active())} pairs delivered; need 3 to check, sample and encode"
            )
        if reason == DEPLETED_RETURN:
            raise BlockDepleted("no second-check samples survived the return transit")


def _require_phase(session: SessionState, expected: Phase) -> None:
    if session.phase is not expected:
        raise PhaseError(
            f"operation requires phase {expected.value}, session is in {session.phase.value}"
        )


def _alone(session: SessionState, expected: Phase, rng=None) -> SessionGroup:
    # the single-session API runs the group code on the session's group of one
    _require_phase(session, expected)
    session.group.rngs = [rng]
    return session.group


def prepare_block(cfg: ProtocolConfig, source: SourceParams) -> SessionState:
    """Bob's source emits n_pairs identical pair states; bookkeeping starts clean."""
    return SessionState(prepare_group(cfg, source, [None]))  # preparing draws nothing


@cache
def _table(alphabet: bytes) -> bytes:
    return bytes.maketrans(bytes(range(len(alphabet))), alphabet)


def _texts(alphabet: bytes, codes: np.ndarray) -> list[str]:
    """Per row r of the 2-D ``codes``, the string of the characters ``alphabet[codes[r, k]]``."""
    width = codes.shape[1]
    if not width:
        return [""] * len(codes)
    text = codes.astype(np.uint8).tobytes().translate(_table(alphabet)).decode("ascii")
    return [text[start : start + width] for start in range(0, len(text), width)]


_OP_NAMES = tuple(f"{op.i}{op.j}" for op in map(EncodingOp.from_code, range(16)))


def _op_names(codes: np.ndarray) -> list[str]:
    return [_OP_NAMES[c] for c in codes.tolist()]


def _spans(sizes: list) -> list[tuple[int, int]]:
    """(start, stop) of back-to-back runs of the given sizes."""
    stops = list(accumulate(sizes))
    return list(zip([0, *stops[:-1]], stops))


def _candidates(group: SessionGroup, acting: Optional[np.ndarray] = None) -> tuple:
    """Block rows of the pairs in play, ascending, and where each member's run starts.

    Only the rows of the ``acting`` members, when given.  Member j's rows are
    ``rows[starts[j]:starts[j + 1]]``; an index it draws into its own rows
    plus ``starts[j]`` indexes ``rows``.
    """
    active = group.fates == _ACTIVE
    rows = (active if acting is None else active & acting[:, None]).ravel().nonzero()[0]
    return rows, rows.searchsorted(group.bounds).tolist()


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
    exceeds ``threshold``.  Returns per member whether it had samples, its
    counts (see ``SessionGroup``) and whether it failed, as lists.
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
    return sampled.tolist(), counts.tolist(), failed.tolist()


_NO_ROWS = np.empty(0, dtype=np.intp)
_NO_RECORDS = np.empty((0, 2, 2), dtype=np.int8)
_NO_EVE = EveStrategy()

# direction -> (phase before, phase in flight, phase on arrival, fate of a photon lost on the way)
_TRANSITS = {
    "forward": (Phase.PREPARED, Phase.SA_IN_FLIGHT_1, Phase.FIRST_CHECK, PairFate.LOST_FORWARD),
    "return": (Phase.SA_IN_FLIGHT_2, Phase.SA_IN_FLIGHT_2, Phase.DECODING, PairFate.LOST_RETURN),
}


def _transit(
    group: SessionGroup,
    params: chn.ChannelParams,
    eve: Optional[EveStrategy],
    defense: Optional[DefenseConfig],
    direction: str,
) -> None:
    before, in_flight, arrival, lost_fate = _TRANSITS[direction]
    members = group.in_phase(before).nonzero()[0]
    eve = eve if eve is not None else _NO_EVE
    filter_tol = {} if defense is None else {"filter_tolerance": defense.filter_tolerance}
    screen = defense is not None and (defense.filter_enabled or defense.pns_enabled)
    # a quiet channel without an adversary delivers every photon unchanged
    quiet = eve.kind is EveKind.NONE and not (
        params.loss_prob or params.pauli_p_pol or params.pauli_p_spa
    )
    n = group.n_pairs
    records = group.eve_forward if direction == "forward" else group.eve_return
    delivered: list = []  # block rows of the photons delivered, per chunk
    lost: list = []  # block rows of the photons lost, per chunk
    draws: list = []  # their chn.TransitDraws, per chunk
    notes: dict = {}  # member -> its chunks in ``delivered``, positions probed, filtered, alarmed
    for j in [] if quiet else members.tolist():
        rng, offset = group.rngs[j], j * n
        active = (group.fates[j] == _ACTIVE).nonzero()[0] + offset
        first_chunk = len(delivered)
        trojan: list[int] = []
        filtered: list[int] = []
        alarmed: list[int] = []
        for chunk in _chunks(len(active)):
            sent = active[chunk]
            drawn = chn.draw_transit(len(sent), params, eve, rng, **filter_tol)
            if params.loss_prob:
                lost.append(sent[~drawn.delivered])
                sent = sent[drawn.delivered]
            delivered.append(sent)
            draws.append(drawn)
            if drawn.metas is not None:
                got = (sent - offset).tolist()
                trojan.extend(got)
                for pos, meta in zip(got, drawn.metas):
                    verdict = apply_defenses(meta, defense, rng) if screen else DefenseVerdict.CLEAN
                    # a caught probe is stripped; the legitimate photon continues
                    if verdict is DefenseVerdict.FILTERED_OUT:
                        filtered.append(pos)
                    elif verdict is DefenseVerdict.PNS_ALARM:
                        alarmed.append(pos)
        if trojan:
            group.screened[j] += (len(trojan), len(filtered), len(alarmed))
        notes[j] = (slice(first_chunk, len(delivered)), trojan, filtered, alarmed)
    if lost:
        group.fates.reshape(-1)[np.concatenate(lost)] = _FATES.index(lost_fate)
    if delivered:
        rows = np.concatenate(delivered)
        eve_draws = None if draws[0].eve is None else [
            np.concatenate(part) for part in zip(*(d.eve for d in draws))
        ]
        paulis = [
            None if which[0] is None else np.concatenate(which)
            for which in zip(*(d.paulis for d in draws))
        ]
        flat_records = records.reshape(-1, 2, 2)
        for piece in _chunks(len(rows)):
            states, codes = chn.apply_transit(
                group.states[rows[piece]],
                eve,
                None if eve_draws is None else [part[piece] for part in eve_draws],
                [None if which is None else which[piece] for which in paulis],
            )
            group.states[rows[piece]] = states
            if codes is not None:
                flat_records[rows[piece]] = codes
    group.phases[members] = _PHASE[arrival]
    for j in [] if group.transcripts is None else members.tolist():
        chunks, trojan, filtered, alarmed = notes.get(j, (slice(0), [], [], []))
        intercepted, recs = _NO_ROWS, _NO_RECORDS
        if eve.kind is EveKind.INTERCEPT_RESEND and delivered[chunks]:
            intercepted = np.concatenate(delivered[chunks]) - j * n
            recs = records[j][intercepted] + 1
        lost = []
        if params.loss_prob:
            lost = (group.fates[j] == _FATES.index(lost_fate)).nonzero()[0].tolist()
        bases = _texts(b"-ZX", recs[:, :, 0].T)  # (pol, spa)
        outcomes = _texts(b"-01", recs[:, :, 1].T)
        group._log(
            j,
            event="transit",
            phase=in_flight.value,
            to_phase=arrival.value,
            direction=direction,
            lost_positions=lost,
            intercepted_positions=intercepted.tolist(),
            eve_pol_bases=bases[0],
            eve_pol_outcomes=outcomes[0],
            eve_spa_bases=bases[1],
            eve_spa_outcomes=outcomes[1],
            trojan_positions=trojan,
            filtered_positions=filtered,
            alarmed_positions=alarmed,
        )


def transmit_forward_group(
    group: SessionGroup,
    params: chn.ChannelParams,
    eve: Optional[EveStrategy] = None,
    defense: Optional[DefenseConfig] = None,
) -> None:
    """Send every active photon A of every session from Bob to Alice; defenses act on arrival."""
    _transit(group, params, eve, defense, "forward")


def transmit_forward(
    session: SessionState,
    params: chn.ChannelParams,
    rng: np.random.Generator,
    eve: Optional[EveStrategy] = None,
    defense: Optional[DefenseConfig] = None,
) -> SessionState:
    """``transmit_forward_group`` of one session."""
    _transit(_alone(session, Phase.PREPARED, rng), params, eve, defense, "forward")
    return session


def transmit_return_group(
    group: SessionGroup,
    params: chn.ChannelParams,
    eve: Optional[EveStrategy] = None,
) -> None:
    """Send the encoded photons back from Alice to Bob (no receiver defenses)."""
    _transit(group, params, eve, None, "return")


def transmit_return(
    session: SessionState,
    params: chn.ChannelParams,
    rng: np.random.Generator,
    eve: Optional[EveStrategy] = None,
) -> SessionState:
    """``transmit_return_group`` of one session."""
    _transit(_alone(session, Phase.SA_IN_FLIGHT_2, rng), params, eve, None, "return")
    return session


# bit shifts that split a correlation-check outcome over all four axes,
# (alice_pol, bob_pol, alice_spa, bob_spa) big-endian, into the rows
# alice_pol, alice_spa, bob_pol, bob_spa
_CHECK_BITS = np.array([[3], [1], [2], [0]], dtype=np.uint8)
# bit shifts that split flat Bell labels 4 * p + s into the rows p, s
_BELL_SHIFTS = np.array([[2], [0]])


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
    members, picks, xs, us = [], [], [], []
    for j in acting.nonzero()[0].tolist():
        size = starts[j + 1] - starts[j]
        if size < 3:
            group._deplete(j, DEPLETED_FORWARD)
            continue
        k = min(_sample_count(cfg.sample_fraction_first, size), size - 2)
        rng = group.rngs[j]
        picks.append(rng.choice(size, size=k, replace=False) + starts[j])
        # the (k, 2) X-basis draws, (pol, spa) per sample, then one Born uniform per sample
        draws = rng.random(3 * k)
        xs.append(draws[: 2 * k])
        us.append(draws[2 * k :])
        members.append(j)
    if not members:
        return
    rows = np.sort(candidates[np.concatenate(picks)])
    x = np.concatenate(xs).reshape(-1, 2) < 0.5
    u = np.concatenate(us)
    # one 16-outcome draw per sample reads (alice_pol, bob_pol, alice_spa, bob_spa)
    outcomes = np.empty(len(rows), dtype=np.uint8)
    for piece in _chunks(len(rows)):
        outcomes[piece] = measure(
            group.states[rows[piece]], ALL_AXES, u[piece], x[piece][:, [0, 0, 1, 1]],
            collapse=False,
        )[0]
    _, counts, failed = _check(group, 0, rows, _CHECK_ERRORS[outcomes], cfg.error_threshold,
                               Phase.ENCODING)
    group.fates.reshape(-1)[rows] = _CONSUMED
    if group.transcripts is None:
        return
    n = group.n_pairs
    # the bases (pol, spa) and outcome bits (alice_pol, alice_spa, bob_pol, bob_spa) of all samples
    bases = _texts(b"ZX", x.T)
    bits = _texts(b"01", (outcomes >> _CHECK_BITS) & 1)
    for j, (a, b) in zip(members, _spans([len(p) for p in picks])):
        group._log(
            j,
            event="first_check",
            phase=Phase.FIRST_CHECK.value,
            to_phase=(Phase.ABORTED if failed[j] else Phase.ENCODING).value,
            positions=(rows[a:b] - j * n).tolist(),
            pol_bases=bases[0][a:b],
            spa_bases=bases[1][a:b],
            alice_pol=bits[0][a:b],
            alice_spa=bits[1][a:b],
            bob_pol=bits[2][a:b],
            bob_spa=bits[3][a:b],
            **CheckReport.from_counts(counts[j], failed[j]).fields(),
        )
        if failed[j]:
            group._log(j, event="result", phase=Phase.ABORTED.value, message=None)


def first_check(session: SessionState, rng: np.random.Generator, cfg: ProtocolConfig) -> CheckReport:
    """``first_check_group`` of one session; raises ``BlockDepleted``."""
    first_check_group(_alone(session, Phase.FIRST_CHECK, rng), cfg)
    session.raise_if_depleted()
    return session.first_report


def _encoding_plan(group: SessionGroup, cfg: ProtocolConfig) -> tuple:
    # the members ready to encode, their candidate rows and starts (see
    # _candidates), and per member its eligible-pair count and second-sample size
    acting = group.in_phase(Phase.ENCODING)
    candidates, starts = _candidates(group, acting)
    members = acting.nonzero()[0].tolist()
    first = group.counts[:, 0, 0].tolist()
    n_eligible, n_second = [], []
    for j in members:
        size = starts[j + 1] - starts[j]
        if size < 2:
            raise BlockDepleted(f"only {size} pairs left; need 2 to sample and encode")
        n_eligible.append(size)
        n_second.append(_second_sample_size(cfg, size, first[j]))
    return members, candidates, starts, n_eligible, n_second


def _second_sample_size(cfg: ProtocolConfig, n_eligible: int, n_first: int) -> int:
    return min(_sample_count(cfg.sample_fraction_second, n_eligible + n_first), n_eligible - 1)


def message_capacities(group: SessionGroup, cfg: ProtocolConfig) -> tuple[list, list]:
    """(members ready to encode, the bits each can carry beside its second-check sample)."""
    members, _, _, n_eligible, n_second = _encoding_plan(group, cfg)
    return members, [4 * (e - k) for e, k in zip(n_eligible, n_second)]


def message_capacity(session: SessionState, cfg: ProtocolConfig) -> int:
    """Bits the block can carry once the second-check sample is set aside."""
    _require_phase(session, Phase.ENCODING)
    n_eligible = len(session.active())
    n_first = int(session.group.counts[session.j, 0, 0])
    return 4 * (n_eligible - _second_sample_size(cfg, n_eligible, n_first))


# weights that turn a row of four message bits into its chunk's value
_CHUNK_WEIGHTS = np.array([8, 4, 2, 1])


def encode_group(group: SessionGroup, messages: list, cfg: ProtocolConfig) -> None:
    """Alice writes each session's message and hides its second-check sample.

    ``messages`` holds one integer array of 0/1 bits per member ready to
    encode, in member order (see ``message_capacities``).  Message pairs get
    the op named by the next 4-bit chunk of the message; sample pairs get an
    op drawn uniformly from all 16, recorded for the comparison after
    readout.  Every message is checked before any session draws.
    """
    members, candidates, starts, n_eligible, n_second = _encoding_plan(group, cfg)
    if len(messages) != len(members):
        raise ValueError(f"{len(messages)} messages for {len(members)} sessions ready to encode")
    if not members:
        return
    bits = np.concatenate(messages)
    if (bits >> 1).any():
        raise ValueError("message must be a string of 0s and 1s")
    for message, size, k in zip(messages, n_eligible, n_second):
        if len(message) != 4 * (size - k):
            raise MessageSizeError(
                f"message length must be exactly {4 * (size - k)} bits for this block, "
                f"got {len(message)}"
            )
    picks, sample_ops = [], []
    for j, size, k in zip(members, n_eligible, n_second):
        rng = group.rngs[j]
        picks.append(rng.choice(size, size=k, replace=False) + starts[j])
        sample_ops.append(rng.integers(16, size=k))
    second = np.sort(candidates[np.concatenate(picks)])
    is_second = group.second.reshape(-1)
    is_second[second] = True
    message_rows = candidates[~is_second[candidates]]
    # chunk k of the messages, joined in member order, goes to message row k
    chunks = bits.reshape(-1, 4) @ _CHUNK_WEIGHTS
    ops = group.ops.reshape(-1)
    ops[message_rows] = cfg.op_of_chunk[chunks]
    ops[second] = np.concatenate(sample_ops)
    group.sent.reshape(-1)[message_rows] = chunks
    for piece in _chunks(len(candidates)):
        block = candidates[piece]
        group.states[block] = encode(group.states[block], ops[block])
    group.phases[members] = _PHASE[Phase.SA_IN_FLIGHT_2]
    if group.transcripts is None:
        return
    n = group.n_pairs
    for j, (a, b), (c, d) in zip(members, _spans([e - k for e, k in zip(n_eligible, n_second)]),
                                 _spans(n_second)):
        group._log(
            j,
            event="encode",
            phase=Phase.ENCODING.value,
            to_phase=Phase.SA_IN_FLIGHT_2.value,
            message_positions=(message_rows[a:b] - j * n).tolist(),
            message_ops=_op_names(ops[message_rows[a:b]]),
            sample_positions=(second[c:d] - j * n).tolist(),
            sample_ops=_op_names(ops[second[c:d]]),
        )


def encode_message(
    session: SessionState, message: str, rng: np.random.Generator, cfg: ProtocolConfig
) -> SessionState:
    """``encode_group`` of one session; ``message`` is a string of 0s and 1s."""
    group = _alone(session, Phase.ENCODING, rng)
    bits = np.frombuffer(message.encode(), dtype=np.uint8) - ord("0")
    encode_group(group, [bits], cfg)
    return session


def decode_group(group: SessionGroup, cfg: ProtocolConfig) -> None:
    """Bob reads every returned pair, verifies the hidden sample, then decodes.

    Readout is a complete hyper-Bell analysis per pair.  Alice announces
    the sample positions and ops; a Bell label differing from the recorded
    op's image counts one error per disagreeing DOF.  Only a passing block
    releases the message; a failing one is withheld entirely.  A session
    whose whole second-check sample was lost is marked ``DEPLETED_RETURN``.
    """
    acting = group.in_phase(Phase.DECODING)
    members = acting.nonzero()[0].tolist()
    if not members:
        return
    group.phases[members] = _PHASE[Phase.SECOND_CHECK]
    rows, starts = _candidates(group, acting)
    u = np.concatenate([group.rngs[j].random(starts[j + 1] - starts[j]) for j in members])
    labels = np.empty(len(rows), dtype=np.intp)
    for piece in _chunks(len(rows)):
        labels[piece] = bell_labels(group.states[rows[piece]], u[piece])

    in_sample = group.second.reshape(-1)[rows]
    sample_rows = rows[in_sample]
    got = labels[in_sample]
    expected = group.ops.reshape(-1)[sample_rows]  # an op code is the flat label it encodes
    checked, counts, failed = _check(group, 1, sample_rows, _LABEL_ERRORS[got ^ expected],
                                     cfg.error_threshold, Phase.ACCEPTED)
    lost_sample = [j for j in members if not checked[j]]
    if lost_sample:
        group._deplete(lost_sample, DEPLETED_RETURN)
    n = group.n_pairs
    if any(checked[j] and not failed[j] for j in members):
        # a passing block releases its message: each Bell label read back is
        # the code of the op that made it
        kept = group.in_phase(Phase.ACCEPTED)[rows // n] & (group.sent.reshape(-1)[rows] >= 0)
        group.received.reshape(-1)[rows[kept]] = cfg.chunk_of_op[labels[kept]]
    if group.transcripts is None:
        return
    bell = _texts(b"0123", (labels >> _BELL_SHIFTS) & 3)  # (pol, spa) of every pair read
    for j in members:
        if not checked[j]:
            continue
        session = SessionState(group, j)
        mine = slice(starts[j], starts[j + 1])
        samples = rows[mine][in_sample[mine]]
        group._log(
            j,
            event="second_check",
            phase=Phase.SECOND_CHECK.value,
            to_phase=session.phase.value,
            positions=(rows[mine] - j * n).tolist(),
            bell_pol=bell[0][mine],
            bell_spa=bell[1][mine],
            sample_positions=(samples - j * n).tolist(),
            expected_ops=_op_names(group.ops.reshape(-1)[samples]),
            **CheckReport.from_counts(counts[j], failed[j]).fields(),
        )
        group._log(j, event="result", phase=session.phase.value, message=session.decoded_message)


def decode_and_second_check(
    session: SessionState, rng: np.random.Generator, cfg: ProtocolConfig
) -> tuple[Optional[str], CheckReport]:
    """``decode_group`` of one session; raises ``BlockDepleted``."""
    decode_group(_alone(session, Phase.DECODING, rng), cfg)
    session.raise_if_depleted()
    return session.decoded_message, session.second_report
