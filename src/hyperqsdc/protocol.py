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
session's transcript with a stable field order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from . import channel as chn
from .adversary import DefenseConfig, DefenseVerdict, EveKind, EveStrategy, apply_defenses
from .hyperstate import (
    ALL_AXES,
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
    transcript: list = field(default_factory=list)
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
    session.transcript.append(dict(fields))


def _chars(alphabet: bytes, codes) -> str:
    """The string whose k-th character is ``alphabet[codes[k]]``."""
    table = bytes.maketrans(bytes(range(len(alphabet))), alphabet)
    return np.asarray(codes, dtype=np.uint8).tobytes().translate(table).decode("ascii")


_OP_NAMES = tuple(f"{op.i}{op.j}" for op in map(EncodingOp.from_code, range(16)))


def _op_names(codes: np.ndarray) -> list[str]:
    return [_OP_NAMES[c] for c in codes.tolist()]


def _sample_mask(rng: np.random.Generator, rows: np.ndarray, k: int, n_pairs: int) -> np.ndarray:
    """Mask over the block of k distinct positions drawn uniformly from ``rows``."""
    chosen = np.zeros(n_pairs, dtype=bool)
    chosen[rng.choice(rows, size=k, replace=False)] = True
    return chosen


def prepare_block(cfg: ProtocolConfig, source: SourceParams) -> SessionState:
    """Bob's source emits n_pairs identical pair states; bookkeeping starts clean."""
    n = cfg.n_pairs
    session = SessionState(
        n_pairs=n,
        phase=Phase.PREPARED,
        states=source_amplitudes(source)[None].repeat(n, axis=0),
        fate_codes=np.zeros(n, dtype=np.int8),
        op_codes=np.full(n, -1),
        eve_forward=np.full((n, 2, 2), -1, dtype=np.int8),
        eve_return=np.full((n, 2, 2), -1, dtype=np.int8),
    )
    _log(
        session,
        event="prepare",
        phase=Phase.PREPARED.value,
        n_pairs=cfg.n_pairs,
        source_r=float(source.r),
        source_phi=float(source.phi),
    )
    return session


# direction -> (phase in flight, phase on arrival, fate of a photon lost on the way)
_TRANSITS = {
    "forward": (Phase.SA_IN_FLIGHT_1, Phase.FIRST_CHECK, PairFate.LOST_FORWARD),
    "return": (Phase.SA_IN_FLIGHT_2, Phase.DECODING, PairFate.LOST_RETURN),
}


def _transit(
    session: SessionState,
    params: chn.ChannelParams,
    rng: np.random.Generator,
    eve: Optional[EveStrategy],
    defense: Optional[DefenseConfig],
    direction: str,
) -> None:
    in_flight, arrival, lost_fate = _TRANSITS[direction]
    session.phase = in_flight
    eve = eve if eve is not None else EveStrategy()
    records = session.eve_forward if direction == "forward" else session.eve_return
    filter_tol = {} if defense is None else {"filter_tolerance": defense.filter_tolerance}
    screen = defense is not None and (defense.filter_enabled or defense.pns_enabled)
    # a quiet channel without an adversary delivers every photon unchanged
    quiet = eve.kind is EveKind.NONE and not (
        params.loss_prob or params.pauli_p_pol or params.pauli_p_spa
    )
    active = np.empty(0, dtype=np.intp) if quiet else session.active()
    lost: list[int] = []
    intercepted: list[int] = []
    trojan: list[int] = []
    filtered: list[int] = []
    alarmed: list[int] = []
    for chunk in _chunks(len(active)):
        rows = active[chunk]
        delivered, states, codes, metas = chn.transit(
            session.states[rows], params, eve, rng, **filter_tol
        )
        lost.extend(rows[~delivered].tolist())
        rows = rows[delivered]
        session.states[rows] = states
        if codes is not None:
            records[rows] = codes
            intercepted.extend(rows.tolist())
        if metas is not None:
            trojan.extend(rows.tolist())
            for pos, meta in zip(rows.tolist(), metas):
                verdict = apply_defenses(meta, defense, rng) if screen else DefenseVerdict.CLEAN
                if verdict is not DefenseVerdict.CLEAN:
                    # probe caught and stripped; the legitimate photon continues
                    (filtered if verdict is DefenseVerdict.FILTERED_OUT else alarmed).append(pos)
    session.fate_codes[lost] = _FATES.index(lost_fate)
    session.trojan_positions.extend(trojan)
    session.filtered_positions.extend(filtered)
    session.alarmed_positions.extend(alarmed)
    recs = records[intercepted] + 1
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


def transmit_forward(
    session: SessionState,
    params: chn.ChannelParams,
    rng: np.random.Generator,
    eve: Optional[EveStrategy] = None,
    defense: Optional[DefenseConfig] = None,
) -> SessionState:
    """Send every active photon A from Bob to Alice; defenses act on arrival."""
    _require_phase(session, Phase.PREPARED)
    _transit(session, params, rng, eve, defense, "forward")
    return session


def transmit_return(
    session: SessionState,
    params: chn.ChannelParams,
    rng: np.random.Generator,
    eve: Optional[EveStrategy] = None,
) -> SessionState:
    """Send the encoded photons back from Alice to Bob (no receiver defenses)."""
    _require_phase(session, Phase.SA_IN_FLIGHT_2)
    _transit(session, params, rng, eve, None, "return")
    return session


# bit shifts that split an outcome over all four axes into its axis bits
_BIG_ENDIAN_4 = np.array([3, 2, 1, 0])


def first_check(session: SessionState, rng: np.random.Generator, cfg: ProtocolConfig) -> CheckReport:
    """Correlation check on a random sample of delivered pairs.

    Alice draws the sample and a uniform Z/X basis per DOF for each pair,
    measures her photon, announces everything, and Bob measures his photon
    in the same bases.  Checked pairs are consumed either way.
    """
    _require_phase(session, Phase.FIRST_CHECK)
    delivered = session.active()
    if len(delivered) < 3:
        raise BlockDepleted(
            f"only {len(delivered)} pairs delivered; need 3 to check, sample and encode"
        )
    n_check = min(_sample_count(cfg.sample_fraction_first, len(delivered)), len(delivered) - 2)
    positions = np.flatnonzero(_sample_mask(rng, delivered, n_check, session.n_pairs))
    x = rng.random((n_check, 2)) < 0.5  # X basis per sample, (pol, spa)
    u = rng.random(n_check)
    # one 16-outcome draw per sample reads (alice_pol, bob_pol, alice_spa, bob_spa)
    outcomes = np.empty(n_check, dtype=np.intp)
    for chunk in _chunks(n_check):
        outcomes[chunk] = measure(
            session.states[positions[chunk]], ALL_AXES, u[chunk], x[chunk][:, [0, 0, 1, 1]],
            collapse=False,
        )[0]
    session.fate_codes[positions] = _FATES.index(PairFate.CONSUMED_CHECK)
    alice_pol, bob_pol, alice_spa, bob_spa = ((outcomes[:, None] >> _BIG_ENDIAN_4) & 1).T
    pol_err = alice_pol != bob_pol
    spa_err = alice_spa != bob_spa
    report = CheckReport.build(
        n_check,
        int(pol_err.sum()),
        int(spa_err.sum()),
        int((pol_err | spa_err).sum()),
        cfg.error_threshold,
    )
    session.first_sample_positions = positions.tolist()
    session.first_report = report
    next_phase = Phase.ENCODING if report.verdict is Verdict.PASS else Phase.ABORTED
    _log(
        session,
        event="first_check",
        phase=Phase.FIRST_CHECK.value,
        to_phase=next_phase.value,
        positions=session.first_sample_positions,
        pol_bases=_chars(b"ZX", x[:, 0]),
        spa_bases=_chars(b"ZX", x[:, 1]),
        alice_pol=_chars(b"01", alice_pol),
        alice_spa=_chars(b"01", alice_spa),
        bob_pol=_chars(b"01", bob_pol),
        bob_spa=_chars(b"01", bob_spa),
        **report.fields(),
    )
    session.phase = next_phase
    if next_phase is Phase.ABORTED:
        _log(session, event="result", phase=Phase.ABORTED.value, message=None)
    return report


def message_capacity(session: SessionState, cfg: ProtocolConfig) -> int:
    """Bits the block can carry once the second-check sample is set aside."""
    _require_phase(session, Phase.ENCODING)
    n_eligible = len(session.active())
    base = n_eligible + len(session.first_sample_positions)
    n_second = min(_sample_count(cfg.sample_fraction_second, base), n_eligible - 1)
    return 4 * (n_eligible - n_second)


def encode_message(
    session: SessionState, message: str, rng: np.random.Generator, cfg: ProtocolConfig
) -> SessionState:
    """Alice writes the message and hides the second-check sample.

    Message pairs get the op named by the next 4-bit chunk of the message;
    sample pairs get an op drawn uniformly from all 16, recorded for the
    comparison after readout.
    """
    _require_phase(session, Phase.ENCODING)
    if set(message) - {"0", "1"}:
        raise ValueError("message must be a string of 0s and 1s")
    eligible = session.active()
    if len(eligible) < 2:
        raise BlockDepleted(f"only {len(eligible)} pairs left; need 2 to sample and encode")
    base = len(eligible) + len(session.first_sample_positions)
    n_second = min(_sample_count(cfg.sample_fraction_second, base), len(eligible) - 1)
    expected = 4 * (len(eligible) - n_second)
    if len(message) != expected:
        raise MessageSizeError(
            f"message length must be exactly {expected} bits for this block, got {len(message)}"
        )
    is_second = _sample_mask(rng, eligible, n_second, session.n_pairs)
    second = np.flatnonzero(is_second)
    msg_positions = eligible[~is_second[eligible]]
    op_of_chunk = {bits: op.code for op, bits in cfg.bits_mapping.items()}
    session.op_codes[msg_positions] = [
        op_of_chunk[message[k : k + 4]] for k in range(0, len(message), 4)
    ]
    session.op_codes[second] = rng.integers(16, size=n_second)
    for chunk in _chunks(len(eligible)):
        rows = eligible[chunk]
        session.states[rows] = encode(session.states[rows], session.op_codes[rows])
    session.second_sample_positions = second.tolist()
    session.message_positions = msg_positions.tolist()
    _log(
        session,
        event="encode",
        phase=Phase.ENCODING.value,
        to_phase=Phase.SA_IN_FLIGHT_2.value,
        message_positions=session.message_positions,
        message_ops=_op_names(session.op_codes[msg_positions]),
        sample_positions=session.second_sample_positions,
        sample_ops=_op_names(session.op_codes[second]),
    )
    session.phase = Phase.SA_IN_FLIGHT_2
    return session


def decode_and_second_check(
    session: SessionState, rng: np.random.Generator, cfg: ProtocolConfig
) -> tuple[Optional[str], CheckReport]:
    """Bob reads every returned pair, verifies the hidden sample, then decodes.

    Readout is a complete hyper-Bell analysis per pair.  Alice announces
    the sample positions and ops; a Bell label differing from the recorded
    op's image counts one error per disagreeing DOF.  Only a passing block
    releases the message; a failing one is withheld entirely.
    """
    _require_phase(session, Phase.DECODING)
    surviving = session.active()
    u = rng.random(len(surviving))
    labels = np.full(session.n_pairs, -1, dtype=np.intp)
    for chunk in _chunks(len(surviving)):
        labels[surviving[chunk]] = bell_labels(session.states[surviving[chunk]], u[chunk])
    session.phase = Phase.SECOND_CHECK
    second = np.array(session.second_sample_positions, dtype=np.intp)
    sample = second[labels[second] >= 0]
    if sample.size == 0:
        raise BlockDepleted("no second-check samples survived the return transit")
    got = labels[sample]
    expected = session.op_codes[sample]  # an op code is the flat label it encodes
    pol_err = (got >> 2) != (expected >> 2)
    spa_err = (got & 3) != (expected & 3)
    report = CheckReport.build(
        len(sample),
        int(pol_err.sum()),
        int(spa_err.sum()),
        int((pol_err | spa_err).sum()),
        cfg.error_threshold,
    )
    session.second_report = report
    message: Optional[str] = None
    if report.verdict is Verdict.PASS:
        kept = np.array(session.message_positions, dtype=np.intp)
        kept = kept[labels[kept] >= 0]
        # each Bell label read back is the code of the op that made it
        chunk_of_op = {op.code: bits for op, bits in cfg.bits_mapping.items()}
        message = "".join([chunk_of_op[c] for c in labels[kept].tolist()])
        session.decoded_message = message
        session.surviving_message_positions = kept.tolist()
        next_phase = Phase.ACCEPTED
    else:
        next_phase = Phase.ABORTED
    _log(
        session,
        event="second_check",
        phase=Phase.SECOND_CHECK.value,
        to_phase=next_phase.value,
        positions=surviving.tolist(),
        bell_pol=_chars(b"0123", labels[surviving] >> 2),
        bell_spa=_chars(b"0123", labels[surviving] & 3),
        sample_positions=sample.tolist(),
        expected_ops=_op_names(session.op_codes[sample]),
        **report.fields(),
    )
    session.phase = next_phase
    _log(session, event="result", phase=next_phase.value, message=message)
    return message, report
