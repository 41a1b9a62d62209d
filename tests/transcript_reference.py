"""The dict renderer of session transcripts, kept as the reference for ``transcript_lines``.

``render_events(group)`` builds each member's events as Python dicts, straight
from the group's arrays; ``json.dumps({"session": k, **event})`` of each is
what ``protocol.transcript_lines`` must write, byte for byte.
``parse_transcripts(group)`` reads that text back into the same form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from hyperqsdc.adversary import SCREEN_ALARMED, SCREEN_FILTERED
from hyperqsdc.hyperstate import EncodingOp
from hyperqsdc.protocol import (
    _BELL_SHIFTS,
    _PHASES,
    _READ_SHIFTS,
    _TRANSITS,
    FATES,
    Phase,
    SessionGroup,
    Verdict,
    _bits_text,
    _texts,
    transcript_lines,
)


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one eavesdropping check, as a transcript's check event reports it."""

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


_OP_NAMES = tuple(f"{op.i}{op.j}" for op in map(EncodingOp.from_code, range(16)))


def _op_names(codes: np.ndarray) -> list[str]:
    return [_OP_NAMES[c] for c in codes.tolist()]


def _fields(report: CheckReport) -> dict:
    """The report as transcript fields, in declaration order."""
    return {**vars(report), "verdict": report.verdict.value}


def _by_member(mask: np.ndarray, *columns) -> list[list]:
    """Per row (member) of the 2-D ``mask``: the positions it sets, ascending, then its run of
    each of ``columns``, which hold one item per set entry of ``mask`` in row-major order.

    Returns one list over the members per column, the positions first.
    """
    stops = list(accumulate(mask.sum(axis=1).tolist()))
    spans = [slice(start, stop) for start, stop in zip([0, *stops[:-1]], stops)]
    return [[column[span] for span in spans] for column in (mask.nonzero()[1].tolist(), *columns)]


def _transit_events(group: SessionGroup, direction: str) -> list[dict]:
    """Per member, the event of its transit in ``direction``, whether or not it made one."""
    pass_index, _, in_flight, arrival, lost_fate = _TRANSITS[direction]
    records = group.eve[pass_index]
    screens = group.screens[pass_index]
    taken = (records >= 0).any(axis=(2, 3))  # Eve reads some DOF of every photon she takes
    codes = records[taken] + 1
    intercepted, pol_bases, spa_bases, pol_outcomes, spa_outcomes = _by_member(
        taken, *_texts(b"-ZX", codes[:, :, 0].T), *_texts(b"-01", codes[:, :, 1].T)
    )
    [lost], [trojan], [filtered], [alarmed] = map(_by_member, (
        group.fates == FATES.index(lost_fate), screens > 0, screens == SCREEN_FILTERED,
        screens == SCREEN_ALARMED,
    ))
    return [
        dict(event="transit", phase=in_flight.value, to_phase=arrival.value, direction=direction,
             lost_positions=lost[j], intercepted_positions=intercepted[j],
             eve_pol_bases=pol_bases[j], eve_pol_outcomes=pol_outcomes[j],
             eve_spa_bases=spa_bases[j], eve_spa_outcomes=spa_outcomes[j],
             trojan_positions=trojan[j], filtered_positions=filtered[j],
             alarmed_positions=alarmed[j])
        for j in range(len(group.phases))
    ]


def render_events(group: SessionGroup) -> list[list[dict]]:
    """Each member's transcript, read off the group's arrays: its events, in order.

    The events, as far as the member got: prepare, the forward transit, the
    first check (then a result, when it failed), encode, the return transit,
    the second check and the result.  A member depleted at a check has no
    event from that check on.
    """
    sampled = group.first_reads >= 0
    reads = (group.first_reads[sampled] >> _READ_SHIFTS) & 1
    checked, pol_bases, spa_bases, alice_pol, alice_spa, bob_pol, bob_spa = _by_member(
        sampled, *_texts(b"ZX", reads[:2]), *_texts(b"01", reads[2:])
    )
    message, second = group.sent >= 0, group.second
    message_positions, message_ops = _by_member(message, _op_names(group.ops[message]))
    sample_positions, sample_ops = _by_member(second, _op_names(group.ops[second]))
    read = group.bell >= 0
    samples = read & second
    read_positions, bell_pol, bell_spa = _by_member(
        read, *_texts(b"0123", (group.bell[read] >> _BELL_SHIFTS) & 3)
    )
    read_samples, expected_ops = _by_member(samples, _op_names(group.ops[samples]))
    forward, back = _transit_events(group, "forward"), _transit_events(group, "return")
    counts, failed = group.counts.tolist(), group.failed.tolist()
    transcripts = []
    for j, phase in enumerate(_PHASES[code] for code in group.phases.tolist()):
        events = [dict(event="prepare", phase=Phase.PREPARED.value, n_pairs=group.n_pairs,
                       source_r=float(group.source.r), source_phi=float(group.source.phi))]
        if phase is not Phase.PREPARED:
            events.append(forward[j])
        if checked[j]:
            to_phase = Phase.ABORTED if failed[j][0] else Phase.ENCODING
            report = _fields(CheckReport.from_counts(counts[j][0], failed[j][0]))
            events.append(dict(
                event="first_check", phase=Phase.FIRST_CHECK.value, to_phase=to_phase.value,
                positions=checked[j], pol_bases=pol_bases[j], spa_bases=spa_bases[j],
                alice_pol=alice_pol[j], alice_spa=alice_spa[j], bob_pol=bob_pol[j],
                bob_spa=bob_spa[j], **report,
            ))
        if failed[j][0]:
            events.append(dict(event="result", phase=Phase.ABORTED.value, message=None))
        if sample_positions[j]:
            events.append(dict(
                event="encode", phase=Phase.ENCODING.value, to_phase=Phase.SA_IN_FLIGHT_2.value,
                message_positions=message_positions[j], message_ops=message_ops[j],
                sample_positions=sample_positions[j], sample_ops=sample_ops[j],
            ))
            if phase is not Phase.SA_IN_FLIGHT_2:
                events.append(back[j])
        if read_samples[j]:
            report = _fields(CheckReport.from_counts(counts[j][1], failed[j][1]))
            events.append(dict(
                event="second_check", phase=Phase.SECOND_CHECK.value, to_phase=phase.value,
                positions=read_positions[j], bell_pol=bell_pol[j], bell_spa=bell_spa[j],
                sample_positions=read_samples[j], expected_ops=expected_ops[j], **report,
            ))
            # the message read back: the Bell labels of the message pairs that returned
            bell = group.bell[j]
            received = bell[(group.sent[j] >= 0) & (bell >= 0)]
            text = _bits_text(received) if phase is Phase.ACCEPTED else None
            events.append(dict(event="result", phase=phase.value, message=text))
        transcripts.append(events)
    return transcripts


def parse_transcripts(group: SessionGroup) -> list[list[dict]]:
    """Each member's events, in order: ``transcript_lines`` of every member, one
    ``json.loads`` per line, without the session key."""
    members = range(len(group.phases))
    transcripts: list = [[] for _ in members]
    for event in map(json.loads, transcript_lines(group, members, members).splitlines()):
        transcripts[event.pop("session")].append(event)
    return transcripts
