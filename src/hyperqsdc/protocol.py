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

Phases move strictly forward; only the two checks may abort.  A session
is single-owner mutable state: ops mutate the ``SessionState`` they are
given and return it (or a report), and all randomness flows through the
explicit generator arguments.  Every op appends one event to the
session's transcript, when it keeps one, with a stable field order.

Each phase is written once, for a ``SessionGroup`` of sessions that share
one block of rows and move in lockstep; the single-session functions
(``transmit_forward``, ``first_check``, ...) run it on a group of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
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
    source_amplitudes,
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
    def chunk_of_op(self) -> tuple:
        """Decoder table: the 4-bit chunk ``bits_mapping`` gives each op code."""
        chunks = {op.code: chunk for op, chunk in self.bits_mapping.items()}
        return tuple(chunks[code] for code in range(16))


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
    def build(n_checked: int, n_pol: int, n_spa: int, n_mism: int, threshold: float) -> "CheckReport":
        rate_pol = n_pol / n_checked
        rate_spa = n_spa / n_checked
        verdict = Verdict.FAIL if max(rate_pol, rate_spa) > threshold else Verdict.PASS
        return CheckReport(n_checked, n_pol, n_spa, n_mism, rate_pol, rate_spa, verdict)

    def fields(self) -> dict:
        """The report as transcript fields, in declaration order."""
        return {**vars(self), "verdict": self.verdict.value}


@dataclass
class SessionState:
    """Mutable state of one session; create it with ``prepare_block``.

    Row k of ``states`` is the joint 16-amplitude state of pair k; the row
    index doubles as the position of photon A in Bob's outgoing sequence
    and of photon B in the sequence he keeps; a pair that left play keeps
    its last state.  ``fate_codes`` holds each row's index into
    ``tuple(PairFate)``.  ``op_codes`` holds the op code
    (``EncodingOp.code``) Alice applied to each row, -1 where she applied
    none; ``eve_forward`` and ``eve_return`` hold Eve's record codes
    (``EveRecord.from_codes``) of each pass, -1 where she did not measure.
    """

    n_pairs: int
    phase: Phase
    states: np.ndarray
    fate_codes: np.ndarray
    op_codes: np.ndarray
    eve_forward: np.ndarray
    eve_return: np.ndarray
    first_sample_positions: list = field(default_factory=list)
    second_sample_positions: list = field(default_factory=list)
    message_positions: list = field(default_factory=list)
    trojan_positions: list = field(default_factory=list)
    filtered_positions: list = field(default_factory=list)
    alarmed_positions: list = field(default_factory=list)
    transcript: Optional[list] = field(default_factory=list)
    first_report: Optional[CheckReport] = None
    second_report: Optional[CheckReport] = None
    decoded_message: Optional[str] = None
    surviving_message_positions: list = field(default_factory=list)

    @property
    def fate(self) -> list[PairFate]:
        """Where each position of the block ended up."""
        return [_FATES[k] for k in self.fate_codes.tolist()]

    def active(self) -> np.ndarray:
        """Positions still in play, ascending."""
        return (self.fate_codes == _FATES.index(PairFate.ACTIVE)).nonzero()[0]


def _require_phase(session: SessionState, expected: Phase) -> None:
    if session.phase is not expected:
        raise PhaseError(
            f"operation requires phase {expected.value}, session is in {session.phase.value}"
        )


def _log(session: SessionState, **fields) -> None:
    if session.transcript is not None:
        session.transcript.append(fields)


def _chars(alphabet: bytes, codes) -> str:
    """The string whose k-th character is ``alphabet[codes[k]]``."""
    table = bytes.maketrans(bytes(range(len(alphabet))), alphabet)
    return np.asarray(codes, dtype=np.uint8).tobytes().translate(table).decode("ascii")


_OP_NAMES = tuple(f"{op.i}{op.j}" for op in map(EncodingOp.from_code, range(16)))


def _op_names(codes: np.ndarray) -> list[str]:
    return [_OP_NAMES[c] for c in codes.tolist()]


def _spans(sizes: list) -> list[tuple[int, int]]:
    """(start, stop) of back-to-back runs of the given sizes."""
    stops = list(accumulate(sizes))
    return list(zip([0, *stops[:-1]], stops))


def _reports(pol_err: np.ndarray, spa_err: np.ndarray, sizes: list, threshold: float) -> list:
    """Per member, the report on its consecutive run of ``sizes`` check rows; None if empty."""
    flags = np.array([pol_err, spa_err, pol_err | spa_err])
    return [
        CheckReport.build(stop - start, *flags[:, start:stop].sum(axis=1).tolist(), threshold)
        if stop > start else None
        for start, stop in _spans(sizes)
    ]


def _sample_mask(rng: np.random.Generator, rows: np.ndarray, k: int, n_pairs: int) -> np.ndarray:
    """Mask over the block of k distinct positions drawn uniformly from ``rows``."""
    chosen = np.zeros(n_pairs, dtype=bool)
    chosen[rng.choice(rows, size=k, replace=False)] = True
    return chosen


@dataclass
class SessionGroup:
    """Sessions that go through every phase together; create it with ``prepare_group``.

    The sessions share one block: session j owns the ``n_pairs`` rows of
    ``states``, ``op_codes``, ``eve_forward`` and ``eve_return`` that start at
    ``offsets[j]``, and the arrays of its ``SessionState`` are views of them;
    offsets ascend.  ``rngs[j]`` is the only generator session j draws from.
    Every phase first draws session by session, in the order and sizes of
    the session run alone, and then does its state work in one kernel pass
    over the stacked rows, at most ``CHUNK_ROWS`` rows per kernel call.  So
    a session's draws, outcomes and transcript never depend on which
    sessions share its group.
    """

    sessions: list
    rngs: list
    offsets: list
    states: np.ndarray
    op_codes: np.ndarray
    eve_forward: np.ndarray
    eve_return: np.ndarray

    @staticmethod
    def alone(session: SessionState, rng: Optional[np.random.Generator]) -> "SessionGroup":
        """The group of one session, whose own arrays are the block."""
        return SessionGroup([session], [rng], [0], session.states, session.op_codes,
                            session.eve_forward, session.eve_return)

    def members(self, keep: list[int]) -> "SessionGroup":
        """The group of the members at positions ``keep``, sharing this block."""
        return replace(
            self,
            sessions=[self.sessions[j] for j in keep],
            rngs=[self.rngs[j] for j in keep],
            offsets=[self.offsets[j] for j in keep],
        )

    def __iter__(self):
        """(session, generator, first block row) per member."""
        return zip(self.sessions, self.rngs, self.offsets)


def prepare_group(
    cfg: ProtocolConfig,
    source: SourceParams,
    rngs: list,
    record: bool = True,
    amps: Optional[np.ndarray] = None,
) -> SessionGroup:
    """One session per generator; Bob's source fills every row of the shared block.

    ``record`` keeps a transcript per session.  ``amps`` is
    ``source_amplitudes(source)`` for a caller that already has it.
    """
    n, rows = cfg.n_pairs, cfg.n_pairs * len(rngs)
    states = np.empty((rows, DIM), dtype=complex)
    states[:] = source_amplitudes(source) if amps is None else amps
    fate_codes = np.zeros(rows, dtype=np.int8)
    op_codes = np.full(rows, -1)
    eve_forward = np.full((rows, 2, 2), -1, dtype=np.int8)
    eve_return = np.full((rows, 2, 2), -1, dtype=np.int8)
    offsets = list(range(0, rows, n))
    sessions = []
    for offset in offsets:
        own = slice(offset, offset + n)
        session = SessionState(
            n_pairs=n,
            phase=Phase.PREPARED,
            states=states[own],
            fate_codes=fate_codes[own],
            op_codes=op_codes[own],
            eve_forward=eve_forward[own],
            eve_return=eve_return[own],
            transcript=[] if record else None,
        )
        _log(
            session,
            event="prepare",
            phase=Phase.PREPARED.value,
            n_pairs=n,
            source_r=float(source.r),
            source_phi=float(source.phi),
        )
        sessions.append(session)
    return SessionGroup(sessions, list(rngs), offsets, states, op_codes, eve_forward, eve_return)


def prepare_block(cfg: ProtocolConfig, source: SourceParams) -> SessionState:
    """Bob's source emits n_pairs identical pair states; bookkeeping starts clean."""
    return prepare_group(cfg, source, [None]).sessions[0]  # preparing draws nothing


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
    for session in group.sessions:
        _require_phase(session, before)
    eve = eve if eve is not None else EveStrategy()
    filter_tol = {} if defense is None else {"filter_tolerance": defense.filter_tolerance}
    screen = defense is not None and (defense.filter_enabled or defense.pns_enabled)
    # a quiet channel without an adversary delivers every photon unchanged
    quiet = eve.kind is EveKind.NONE and not (
        params.loss_prob or params.pauli_p_pol or params.pauli_p_spa
    )
    rows: list = []  # block rows of the photons delivered, per chunk
    draws: list = []  # their chn.TransitDraws, per chunk
    notes: list = []  # per session: positions lost, delivered, probed, filtered, alarmed
    for session, rng, offset in group:
        session.phase = in_flight
        active = np.empty(0, dtype=np.intp) if quiet else session.active()
        lost: list[int] = []
        delivered: list = []  # arrays, one per chunk
        trojan: list[int] = []
        filtered: list[int] = []
        alarmed: list[int] = []
        for chunk in _chunks(len(active)):
            sent = active[chunk]
            drawn = chn.draw_transit(len(sent), params, eve, rng, **filter_tol)
            lost.extend(sent[~drawn.delivered].tolist())
            got = sent[drawn.delivered]
            delivered.append(got)
            rows.append(got + offset)
            draws.append(drawn)
            if drawn.metas is not None:
                trojan.extend(got.tolist())
                for pos, meta in zip(got.tolist(), drawn.metas):
                    verdict = apply_defenses(meta, defense, rng) if screen else DefenseVerdict.CLEAN
                    # a caught probe is stripped; the legitimate photon continues
                    if verdict is DefenseVerdict.FILTERED_OUT:
                        filtered.append(pos)
                    elif verdict is DefenseVerdict.PNS_ALARM:
                        alarmed.append(pos)
        session.fate_codes[lost] = _FATES.index(lost_fate)
        session.trojan_positions.extend(trojan)
        session.filtered_positions.extend(filtered)
        session.alarmed_positions.extend(alarmed)
        notes.append((lost, delivered, trojan, filtered, alarmed))
    records = group.eve_forward if direction == "forward" else group.eve_return
    if rows:
        rows = np.concatenate(rows)
        eve_draws = None if draws[0].eve is None else [
            np.concatenate(part) for part in zip(*(d.eve for d in draws))
        ]
        paulis = [
            None if which[0] is None else np.concatenate(which)
            for which in zip(*(d.paulis for d in draws))
        ]
        for piece in _chunks(len(rows)):
            states, codes = chn.apply_transit(
                group.states[rows[piece]],
                eve,
                None if eve_draws is None else [part[piece] for part in eve_draws],
                [None if which is None else which[piece] for which in paulis],
            )
            group.states[rows[piece]] = states
            if codes is not None:
                records[rows[piece]] = codes
    for session, (lost, delivered, trojan, filtered, alarmed) in zip(group.sessions, notes):
        if session.transcript is not None:
            intercepted = []
            if eve.kind is EveKind.INTERCEPT_RESEND and delivered:
                intercepted = np.concatenate(delivered).tolist()
            own = session.eve_forward if direction == "forward" else session.eve_return
            recs = own[intercepted] + 1
            _log(
                session,
                event="transit",
                phase=in_flight.value,
                to_phase=arrival.value,
                direction=direction,
                lost_positions=lost,
                intercepted_positions=intercepted,
                eve_pol_bases=_chars(b"-ZX", recs[:, 0, 0]),
                eve_pol_outcomes=_chars(b"-01", recs[:, 0, 1]),
                eve_spa_bases=_chars(b"-ZX", recs[:, 1, 0]),
                eve_spa_outcomes=_chars(b"-01", recs[:, 1, 1]),
                trojan_positions=trojan,
                filtered_positions=filtered,
                alarmed_positions=alarmed,
            )
        session.phase = arrival


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
    _transit(SessionGroup.alone(session, rng), params, eve, defense, "forward")
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
    _transit(SessionGroup.alone(session, rng), params, eve, None, "return")
    return session


def _one(results: list):
    # the single-session API raises what the group code reports
    if isinstance(results[0], BlockDepleted):
        raise results[0]
    return results[0]


# bit shifts that split an outcome over all four axes into its axis bits
_BIG_ENDIAN_4 = np.array([3, 2, 1, 0], dtype=np.uint8)


def first_check_group(group: SessionGroup, cfg: ProtocolConfig) -> list:
    """Correlation check on a random sample of each session's delivered pairs.

    Alice draws the sample and a uniform Z/X basis per DOF for each pair,
    measures her photon, announces everything, and Bob measures his photon
    in the same bases.  Checked pairs are consumed either way.  Returns per
    session its ``CheckReport``, or the ``BlockDepleted`` error of a session
    with fewer than 3 delivered pairs, which is left untouched.
    """
    for session in group.sessions:
        _require_phase(session, Phase.FIRST_CHECK)
    results: list = []
    rows, xs, us, sizes = [], [], [], []
    for session, rng, offset in group:
        delivered = session.active()
        if len(delivered) < 3:
            results.append(BlockDepleted(
                f"only {len(delivered)} pairs delivered; need 3 to check, sample and encode"
            ))
            sizes.append(0)
            continue
        n_check = min(_sample_count(cfg.sample_fraction_first, len(delivered)), len(delivered) - 2)
        positions = np.flatnonzero(_sample_mask(rng, delivered, n_check, session.n_pairs))
        xs.append(rng.random((n_check, 2)) < 0.5)  # X basis per sample, (pol, spa)
        us.append(rng.random(n_check))
        rows.append(positions + offset)
        session.fate_codes[positions] = _FATES.index(PairFate.CONSUMED_CHECK)
        session.first_sample_positions = positions.tolist()
        results.append(None)
        sizes.append(n_check)
    if not rows:
        return results
    rows, x, u = np.concatenate(rows), np.concatenate(xs), np.concatenate(us)
    # one 16-outcome draw per sample reads (alice_pol, bob_pol, alice_spa, bob_spa)
    outcomes = np.empty(len(rows), dtype=np.uint8)
    for piece in _chunks(len(rows)):
        outcomes[piece] = measure(
            group.states[rows[piece]], ALL_AXES, u[piece], x[piece][:, [0, 0, 1, 1]],
            collapse=False,
        )[0]
    bits = (outcomes[:, None] >> _BIG_ENDIAN_4) & 1
    reports = _reports(bits[:, 0] != bits[:, 1], bits[:, 2] != bits[:, 3], sizes,
                       cfg.error_threshold)
    for j, (session, (a, b), report) in enumerate(zip(group.sessions, _spans(sizes), reports)):
        if results[j] is not None:
            continue
        mine = slice(a, b)
        session.first_report = report
        next_phase = Phase.ENCODING if report.verdict is Verdict.PASS else Phase.ABORTED
        if session.transcript is not None:
            _log(
                session,
                event="first_check",
                phase=Phase.FIRST_CHECK.value,
                to_phase=next_phase.value,
                positions=session.first_sample_positions,
                pol_bases=_chars(b"ZX", x[mine, 0]),
                spa_bases=_chars(b"ZX", x[mine, 1]),
                alice_pol=_chars(b"01", bits[mine, 0]),
                alice_spa=_chars(b"01", bits[mine, 2]),
                bob_pol=_chars(b"01", bits[mine, 1]),
                bob_spa=_chars(b"01", bits[mine, 3]),
                **report.fields(),
            )
        session.phase = next_phase
        if next_phase is Phase.ABORTED:
            _log(session, event="result", phase=Phase.ABORTED.value, message=None)
        results[j] = report
    return results


def first_check(session: SessionState, rng: np.random.Generator, cfg: ProtocolConfig) -> CheckReport:
    """``first_check_group`` of one session; raises ``BlockDepleted``."""
    return _one(first_check_group(SessionGroup.alone(session, rng), cfg))


def _second_sample_size(session: SessionState, cfg: ProtocolConfig, n_eligible: int) -> int:
    base = n_eligible + len(session.first_sample_positions)
    return min(_sample_count(cfg.sample_fraction_second, base), n_eligible - 1)


def message_capacity(session: SessionState, cfg: ProtocolConfig) -> int:
    """Bits the block can carry once the second-check sample is set aside."""
    _require_phase(session, Phase.ENCODING)
    n_eligible = len(session.active())
    return 4 * (n_eligible - _second_sample_size(session, cfg, n_eligible))


# weights that turn a row of four message bits into its chunk's value
_CHUNK_WEIGHTS = np.array([8, 4, 2, 1])


def encode_group(group: SessionGroup, messages: list, cfg: ProtocolConfig) -> None:
    """Alice writes each session's message and hides its second-check sample.

    Message pairs get the op named by the next 4-bit chunk of the message;
    sample pairs get an op drawn uniformly from all 16, recorded for the
    comparison after readout.  Every message is checked before any session
    draws.
    """
    for session in group.sessions:
        _require_phase(session, Phase.ENCODING)
    bits = np.frombuffer("".join(messages).encode(), dtype=np.uint8) - ord("0")
    if (bits > 1).any():
        raise ValueError("message must be a string of 0s and 1s")
    plans = []
    for session, message in zip(group.sessions, messages):
        eligible = session.active()
        if len(eligible) < 2:
            raise BlockDepleted(f"only {len(eligible)} pairs left; need 2 to sample and encode")
        n_second = _second_sample_size(session, cfg, len(eligible))
        expected = 4 * (len(eligible) - n_second)
        if len(message) != expected:
            raise MessageSizeError(
                f"message length must be exactly {expected} bits for this block, got {len(message)}"
            )
        plans.append((eligible, n_second))
    if not plans:
        return
    is_second = np.zeros(len(group.states), dtype=bool)
    rows, sample_ops = [], []
    for (_, rng, offset), (eligible, n_second) in zip(group, plans):
        is_second[rng.choice(eligible, size=n_second, replace=False) + offset] = True
        sample_ops.append(rng.integers(16, size=n_second))
        rows.append(eligible + offset)
    rows = np.concatenate(rows)
    second = np.flatnonzero(is_second)
    message_rows = rows[~is_second[rows]]
    # chunk k of the messages, joined in group order, goes to message row k
    chunk_values = (bits.reshape(-1, 4) * _CHUNK_WEIGHTS).sum(axis=1)
    group.op_codes[message_rows] = cfg.op_of_chunk[chunk_values]
    group.op_codes[second] = np.concatenate(sample_ops)
    for piece in _chunks(len(rows)):
        block = rows[piece]
        group.states[block] = encode(group.states[block], group.op_codes[block])
    for (session, _, offset), (a, b), (c, d) in zip(
        group,
        _spans([len(eligible) - n_second for eligible, n_second in plans]),
        _spans([n_second for _, n_second in plans]),
    ):
        session.message_positions = (message_rows[a:b] - offset).tolist()
        session.second_sample_positions = (second[c:d] - offset).tolist()
        if session.transcript is not None:
            _log(
                session,
                event="encode",
                phase=Phase.ENCODING.value,
                to_phase=Phase.SA_IN_FLIGHT_2.value,
                message_positions=session.message_positions,
                message_ops=_op_names(group.op_codes[message_rows[a:b]]),
                sample_positions=session.second_sample_positions,
                sample_ops=_op_names(group.op_codes[second[c:d]]),
            )
        session.phase = Phase.SA_IN_FLIGHT_2


def encode_message(
    session: SessionState, message: str, rng: np.random.Generator, cfg: ProtocolConfig
) -> SessionState:
    """``encode_group`` of one session."""
    encode_group(SessionGroup.alone(session, rng), [message], cfg)
    return session


def decode_group(group: SessionGroup, cfg: ProtocolConfig) -> list:
    """Bob reads every returned pair, verifies the hidden sample, then decodes.

    Readout is a complete hyper-Bell analysis per pair.  Alice announces
    the sample positions and ops; a Bell label differing from the recorded
    op's image counts one error per disagreeing DOF.  Only a passing block
    releases the message; a failing one is withheld entirely.  Returns per
    session (message or None, ``CheckReport``), or the ``BlockDepleted``
    error of a session whose whole second-check sample was lost.
    """
    for session in group.sessions:
        _require_phase(session, Phase.DECODING)
    if not group.sessions:
        return []
    surviving = [session.active() for session in group.sessions]
    u = np.concatenate([rng.random(len(own)) for own, rng in zip(surviving, group.rngs)])
    rows = np.concatenate([own + offset for own, offset in zip(surviving, group.offsets)])
    labels = np.full(len(group.states), -1, dtype=np.intp)
    for piece in _chunks(len(rows)):
        labels[rows[piece]] = bell_labels(group.states[rows[piece]], u[piece])

    # the block rows of each member's hidden sample and message pairs that came back
    samples, kept = [], []
    for session, _, offset in group:
        for positions, back in ((session.second_sample_positions, samples),
                                (session.message_positions, kept)):
            block = np.array(positions, dtype=np.intp) + offset
            back.append(block[labels[block] >= 0])
    sample = np.concatenate(samples)
    got = labels[sample]
    expected = group.op_codes[sample]  # an op code is the flat label it encodes
    reports = _reports((got >> 2) != (expected >> 2), (got & 3) != (expected & 3),
                       [len(mine) for mine in samples], cfg.error_threshold)
    results: list = []
    for (session, _, offset), own, report, mine, back in zip(
        group, surviving, reports, samples, kept
    ):
        session.phase = Phase.SECOND_CHECK
        if report is None:
            results.append(BlockDepleted("no second-check samples survived the return transit"))
            continue
        session.second_report = report
        message: Optional[str] = None
        if report.verdict is Verdict.PASS:
            # each Bell label read back is the code of the op that made it
            message = "".join([cfg.chunk_of_op[c] for c in labels[back].tolist()])
            session.decoded_message = message
            session.surviving_message_positions = (back - offset).tolist()
            next_phase = Phase.ACCEPTED
        else:
            next_phase = Phase.ABORTED
        if session.transcript is not None:
            read = labels[own + offset]
            _log(
                session,
                event="second_check",
                phase=Phase.SECOND_CHECK.value,
                to_phase=next_phase.value,
                positions=own.tolist(),
                bell_pol=_chars(b"0123", read >> 2),
                bell_spa=_chars(b"0123", read & 3),
                sample_positions=(mine - offset).tolist(),
                expected_ops=_op_names(group.op_codes[mine]),
                **report.fields(),
            )
        session.phase = next_phase
        _log(session, event="result", phase=next_phase.value, message=message)
        results.append((message, report))
    return results


def decode_and_second_check(
    session: SessionState, rng: np.random.Generator, cfg: ProtocolConfig
) -> tuple[Optional[str], CheckReport]:
    """``decode_group`` of one session; raises ``BlockDepleted``."""
    return _one(decode_group(SessionGroup.alone(session, rng), cfg))
