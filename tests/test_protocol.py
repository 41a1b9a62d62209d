"""Tests for the session state machine, the two checks, and coding.

A session run alone is a ``SessionGroup`` of one, driven through the same
phase functions ``run`` uses, with one generator for every phase.
"""

from __future__ import annotations

import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hyperqsdc.adversary import DefenseConfig, EveKind, EveStrategy
from hyperqsdc.draws import DrawSource
from hyperqsdc.harness import GROUP_ROWS, RunConfig, _run_group, run_one_session
from hyperqsdc.hyperstate import EncodingOp, SourceParams
from hyperqsdc.protocol import (
    DEPLETED_FORWARD,
    BlockDepleted,
    ChannelParams,
    ConfigError,
    PairFate,
    Phase,
    ProtocolConfig,
    SessionGroup,
    Verdict,
    _bits_text,
    _check,
    decode_group,
    encode_group,
    first_check_group,
    prepare_group,
    transmit_forward_group,
    transmit_return_group,
)

from transcript_reference import CheckReport, parse_transcripts

IDEAL_SOURCE = SourceParams(r=1.0, phi=0.0)
CLEAN = ChannelParams()
FATE_CODE = {fate: code for code, fate in enumerate(PairFate)}


def phase(group: SessionGroup) -> Phase:
    return tuple(Phase)[group.phases[0]]


def report(group: SessionGroup, check: int) -> CheckReport:
    """Check ``check`` (0 first, 1 second) of the lone member."""
    return CheckReport.from_counts(group.counts[0, check].tolist(), group.failed[0, check])


def positions(mask: np.ndarray) -> list:
    return mask.nonzero()[0].tolist()


def first_samples(group: SessionGroup) -> list:
    return positions(group.fates[0] == FATE_CODE[PairFate.CONSUMED_CHECK])


def message_positions(group: SessionGroup) -> list:
    """Message pairs, ascending; chunk k of the message went to the k-th."""
    return positions(group.sent[0] >= 0)


def sent_message(group: SessionGroup) -> str:
    """The bits of the message the lone member encoded, chunk after chunk."""
    sent = group.sent[0]
    return _bits_text(sent[sent >= 0])


def decoded_message(group: SessionGroup):
    """The bits read back from a passing block; None otherwise."""
    if phase(group) is not Phase.ACCEPTED:
        return None
    received = group.received[0]
    return _bits_text(received[received >= 0])


def run_session(
    cfg,
    rng,
    source=IDEAL_SOURCE,
    params=CLEAN,
    eve_forward=None,
    eve_return=None,
    defense=None,
):
    """Drive one full session as a group of one; returns (group, sent, decoded, report2)."""
    group = prepare_group(cfg, source, DrawSource([rng]))
    transmit_forward_group(group, params, eve=eve_forward, defense=defense)
    first_check_group(group, cfg)
    group.raise_if_depleted(0)
    if report(group, 0).verdict is Verdict.FAIL:
        return group, None, None, None
    encode_group(group, cfg)
    transmit_return_group(group, params, eve=eve_return)
    decode_group(group, cfg)
    group.raise_if_depleted(0)
    return group, sent_message(group), decoded_message(group), report(group, 1)


class TestConfig:
    def test_chunk_0111_is_carried_by_u24(self):
        # chunk 0111: high bits 01 -> i = 2, low bits 11 -> j = 4
        cfg = ProtocolConfig(n_pairs=40)
        rng = np.random.default_rng(1002)
        group = prepare_group(cfg, IDEAL_SOURCE, DrawSource([rng]))
        transmit_forward_group(group, CLEAN)
        first_check_group(group, cfg)
        encode_group(group, cfg)
        rows = message_positions(group)
        chunks = group.sent[0, rows]
        assert (group.ops[0, rows] == chunks).all()  # a chunk's value is its op's code
        assert EncodingOp(2, 4).code == 0b0111
        [encoded] = [event for event in parse_transcripts(group)[0] if event["event"] == "encode"]
        assert encoded["message_positions"] == rows
        carried = [op for op, chunk in zip(encoded["message_ops"], chunks) if chunk == 0b0111]
        assert carried, "the message drawn at this seed holds chunk 0111"
        assert carried == ["24"] * len(carried)

    @pytest.mark.parametrize(
        "kwargs,needle",
        [
            ({"n_pairs": 3}, "n_pairs"),
            ({"sample_fraction_first": 0.0}, "sample_fraction_first"),
            ({"sample_fraction_second": 1.0}, "sample_fraction_second"),
            ({"error_threshold": 1.5}, "error_threshold"),
            ({"sample_fraction_first": 0.6, "sample_fraction_second": 0.6}, "message pairs"),
        ],
    )
    def test_rejects_bad_values_naming_the_bound(self, kwargs, needle):
        with pytest.raises(ConfigError, match=needle):
            ProtocolConfig(**kwargs)


def judged(n_checked: int, n_pol: int, n_spa: int, threshold: float) -> CheckReport:
    """The first-check report of one session whose samples carry these errors."""
    group = SessionGroup(n_checked, DrawSource([None]))
    errors = np.zeros(n_checked, dtype=np.intp)
    errors[:n_pol] += 1  # pol errors on the first samples
    errors[n_checked - n_spa :] += 2  # spa errors on the last ones
    _check(group, 0, np.arange(n_checked), errors, threshold, Phase.ENCODING)
    return report(group, 0)


class TestCheckReport:
    def test_verdict_is_strictly_greater_than_threshold(self):
        at = judged(20, 1, 0, threshold=0.05)
        assert at.verdict is Verdict.PASS  # rate exactly at threshold passes
        above = judged(20, 2, 0, threshold=0.05)
        assert above.verdict is Verdict.FAIL

    def test_verdict_uses_worst_dof(self):
        report = judged(10, 0, 9, threshold=0.5)
        assert report.verdict is Verdict.FAIL


class TestIdealRoundTrip:
    def test_message_survives_bit_exact(self):
        cfg = ProtocolConfig(n_pairs=40)
        for seed in range(20):
            rng = np.random.default_rng([1000, seed])
            group, sent, decoded, report2 = run_session(cfg, rng)
            assert phase(group) is Phase.ACCEPTED
            assert np.array_equal(group.received, group.sent)  # every chunk, -1 off the message
            assert decoded == sent
            assert parse_transcripts(group)[0][-1]["message"] == sent
            assert report2.verdict is Verdict.PASS

    def test_zero_noise_never_aborts(self):
        cfg = ProtocolConfig(n_pairs=24)
        for seed in range(200):
            rng = np.random.default_rng([1001, seed])
            group, _, _, report2 = run_session(cfg, rng)
            assert phase(group) is Phase.ACCEPTED
            assert report(group, 0).n_pol_errors == 0
            assert report(group, 0).n_spa_errors == 0
            assert report2.n_pol_errors == 0 and report2.n_spa_errors == 0

    def test_capacity_accounting(self):
        cfg = ProtocolConfig(n_pairs=112, sample_fraction_first=0.05, sample_fraction_second=0.05)
        rng = np.random.default_rng(7)
        group = prepare_group(cfg, IDEAL_SOURCE, DrawSource([rng]))
        transmit_forward_group(group, CLEAN)
        first_check_group(group, cfg)
        assert len(first_samples(group)) == 6
        encode_group(group, cfg)
        assert len(positions(group.second[0])) == 6
        assert len(message_positions(group)) == 100
        assert len(sent_message(group)) == 400


class TestSampling:
    def test_samples_and_message_positions_are_disjoint(self):
        cfg = ProtocolConfig(n_pairs=60, sample_fraction_first=0.2, sample_fraction_second=0.2)
        rng = np.random.default_rng(8)
        group, _, _, _ = run_session(cfg, rng)
        first = set(first_samples(group))
        second = set(positions(group.second[0]))
        msg = set(message_positions(group))
        assert first & second == set()
        assert first & msg == set()
        assert second & msg == set()
        assert first | second | msg == set(range(60))

    def test_lost_positions_never_sampled_or_encoded(self):
        cfg = ProtocolConfig(n_pairs=80, sample_fraction_first=0.2, sample_fraction_second=0.2)
        rng = np.random.default_rng(9)
        group, sent, decoded, _ = run_session(cfg, rng, params=ChannelParams(loss_prob=0.25))
        fates = group.fates[0]
        forward_lost = set(positions(fates == FATE_CODE[PairFate.LOST_FORWARD]))
        lost = forward_lost | set(positions(fates == FATE_CODE[PairFate.LOST_RETURN]))
        assert lost  # the draw above loses some pairs
        assert lost & set(first_samples(group)) == set()
        touched = set(positions(group.second[0])) | set(message_positions(group))
        # return-pass losses may hit encoded pairs, forward losses may not
        assert forward_lost & touched == set()

    def test_return_loss_shrinks_decoded_message(self):
        cfg = ProtocolConfig(n_pairs=80, sample_fraction_first=0.1, sample_fraction_second=0.1)
        rng = np.random.default_rng(10)
        group, sent, decoded, _ = run_session(cfg, rng, params=ChannelParams(loss_prob=0.2))
        assert phase(group) is Phase.ACCEPTED
        kept = group.received[0] >= 0
        assert np.array_equal(group.received[0, kept], group.sent[0, kept])
        assert decoded == _bits_text(group.sent[0, kept])
        assert parse_transcripts(group)[0][-1]["message"] == decoded


# the legal call from each phase; every other call finds no member in its phase
LEGAL_NEXT = {
    Phase.PREPARED: "forward",
    Phase.FIRST_CHECK: "check1",
    Phase.ENCODING: "encode",
    Phase.SA_IN_FLIGHT_2: "back",
    Phase.DECODING: "decode",
}

GROUP_ARRAYS = ("table", "index", "fates", "ops", "eve", "screens", "first_reads", "second",
                "sent", "received", "bell", "phases", "depleted", "counts", "failed")


def call_phase(name: str, group: SessionGroup, cfg: ProtocolConfig) -> None:
    """One phase function on ``group``."""
    if name == "forward":
        transmit_forward_group(group, CLEAN)
    elif name == "check1":
        first_check_group(group, cfg)
    elif name == "encode":
        encode_group(group, cfg)
    elif name == "back":
        transmit_return_group(group, CLEAN)
    else:
        decode_group(group, cfg)


def snapshot(group: SessionGroup, rng) -> tuple:
    return ([getattr(group, name).tobytes() for name in GROUP_ARRAYS],
            copy.deepcopy(rng.bit_generator.state))


class TestPhaseMachine:
    def test_full_walk_hits_every_phase_in_order(self):
        cfg = ProtocolConfig(n_pairs=16)
        rng = np.random.default_rng(11)
        group = prepare_group(cfg, IDEAL_SOURCE, DrawSource([rng]))
        seen = [phase(group)]
        rendered = [len(parse_transcripts(group)[0])]
        for name in ("forward", "check1", "encode", "back", "decode"):
            call_phase(name, group, cfg)
            seen.append(phase(group))
            rendered.append(len(parse_transcripts(group)[0]))
        # a transcript read mid-session holds the events of the phases done so far
        assert rendered == [1, 2, 3, 4, 5, 7]
        assert seen == [
            Phase.PREPARED,
            Phase.FIRST_CHECK,
            Phase.ENCODING,
            Phase.SA_IN_FLIGHT_2,
            Phase.DECODING,
            Phase.ACCEPTED,
        ]

    @given(st.lists(st.sampled_from(["forward", "check1", "encode", "back", "decode"]), max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_out_of_phase_calls_change_nothing(self, calls):
        cfg = ProtocolConfig(n_pairs=12)
        rng = np.random.default_rng(12)
        group = prepare_group(cfg, IDEAL_SOURCE, DrawSource([rng]))
        order = list(LEGAL_NEXT)
        for name in calls:
            before = phase(group)
            if LEGAL_NEXT.get(before) == name:
                call_phase(name, group, cfg)
                after = order.index(before) + 1
                assert phase(group) is (order[after] if after < len(order) else Phase.ACCEPTED)
            else:
                unchanged = snapshot(group, rng)
                call_phase(name, group, cfg)
                assert snapshot(group, rng) == unchanged

    def test_aborted_first_check_blocks_everything(self):
        cfg = ProtocolConfig(n_pairs=30, sample_fraction_first=0.4, error_threshold=0.0)
        rng = np.random.default_rng(13)
        eve = EveStrategy(kind=EveKind.INTERCEPT_RESEND)
        group = prepare_group(cfg, IDEAL_SOURCE, DrawSource([rng]))
        transmit_forward_group(group, CLEAN, eve=eve)
        first_check_group(group, cfg)
        assert report(group, 0).verdict is Verdict.FAIL
        assert phase(group) is Phase.ABORTED
        unchanged = snapshot(group, rng)
        encode_group(group, cfg)
        assert snapshot(group, rng) == unchanged


class TestSecondCheck:
    def test_return_pass_interception_always_caught_at_zero_threshold(self):
        # per-sample pass probability is 1/4 per DOF pair, so 50 samples
        # leave a miss probability around 1e-30; every session must abort.
        # The sessions run in the lockstep groups that run() uses.
        cfg = ProtocolConfig(
            n_pairs=52,
            sample_fraction_first=0.01,
            sample_fraction_second=0.96,
            error_threshold=0.0,
        )
        eve = EveStrategy(kind=EveKind.INTERCEPT_RESEND)
        rc = RunConfig(sessions=10_000, seed=1002, source=IDEAL_SOURCE, protocol=cfg,
                       channel=CLEAN, eve=eve, eve_passes="return", defense=DefenseConfig())
        per_group = GROUP_ROWS // cfg.n_pairs
        misses = 0
        for first in range(0, rc.sessions, per_group):
            indices = range(first, min(first + per_group, rc.sessions))
            group = _run_group(rc, rc.seed, indices)
            assert not group.depleted.any()
            assert not group.failed[:, 0].any(), "first check must pass: forward pass is clean"
            assert (group.counts[:, 1, 0] == 50).all()  # every second check read 50 samples
            misses += np.count_nonzero(group.in_phase(Phase.ACCEPTED))
        assert misses == 0

    def test_noise_error_rates_attributed_per_dof(self):
        # both transits add Pauli noise; Bell readout per-DOF error is frozen
        # from oracles.pauli_two_transit_bell_mismatch(0.12) = 0.2208
        p = 0.12
        expected = 0.2208
        assert abs(oracles.pauli_two_transit_bell_mismatch(p) - expected) <= 1e-12
        cfg = ProtocolConfig(
            n_pairs=64, sample_fraction_second=0.5, error_threshold=1.0
        )
        params = ChannelParams(pauli_p_pol=p, pauli_p_spa=p)
        pol = spa = checked = 0
        for seed in range(400):
            rng = np.random.default_rng([1003, seed])
            _, _, _, report2 = run_session(cfg, rng, params=params)
            pol += report2.n_pol_errors
            spa += report2.n_spa_errors
            checked += report2.n_checked
        band = 4.0 / math.sqrt(checked)
        assert abs(pol / checked - expected) < band
        assert abs(spa / checked - expected) < band

    def test_failing_block_withholds_message(self):
        cfg = ProtocolConfig(n_pairs=40, sample_fraction_second=0.3, error_threshold=0.0)
        eve = EveStrategy(kind=EveKind.INTERCEPT_RESEND)
        rng = np.random.default_rng(15)
        group, sent, decoded, report2 = run_session(cfg, rng, eve_return=eve)
        assert report2.verdict is Verdict.FAIL
        assert decoded is None
        assert parse_transcripts(group)[0][-1]["message"] is None
        assert phase(group) is Phase.ABORTED


class TestTranscript:
    def run_and_dump(self, seed, **kwargs):
        cfg = ProtocolConfig(n_pairs=24)
        rng = np.random.default_rng(seed)
        group, sent, decoded, _ = run_session(cfg, rng, **kwargs)
        return group, sent, decoded, "\n".join(json.dumps(e) for e in parse_transcripts(group)[0])

    def test_event_order_and_phases(self):
        group, _, _, _ = self.run_and_dump(16)
        [transcript] = parse_transcripts(group)
        kinds = [e["event"] for e in transcript]
        assert kinds == ["prepare", "transit", "first_check", "encode", "transit", "second_check", "result"]
        phases = [e["phase"] for e in transcript]
        assert phases == [
            "Prepared", "SAInFlight1", "FirstCheck", "Encoding",
            "SAInFlight2", "SecondCheck", "Accepted",
        ]

    def test_replay_reproduces_verdict_and_message(self):
        s1, sent1, dec1, dump1 = self.run_and_dump(17)
        s2, sent2, dec2, dump2 = self.run_and_dump(17)
        assert dump1 == dump2
        assert (sent1, dec1, phase(s1)) == (sent2, dec2, phase(s2))
        _, _, _, dump3 = self.run_and_dump(18)
        assert dump1 != dump3

    def test_events_carry_stable_fields(self):
        group, _, _, _ = self.run_and_dump(19, params=ChannelParams(loss_prob=0.1))
        by_kind = {e["event"]: e for e in parse_transcripts(group)[0]}
        assert list(by_kind["transit"])[:5] == ["event", "phase", "to_phase", "direction", "lost_positions"]
        check = by_kind["first_check"]
        assert list(check)[:6] == ["event", "phase", "to_phase", "positions", "pol_bases", "spa_bases"]
        assert len(check["pol_bases"]) == check["n_checked"]
        assert set(check["pol_bases"]) <= {"Z", "X"}
        assert len(check["alice_pol"]) == check["n_checked"]


class TestDepletion:
    def test_too_few_delivered_pairs(self):
        cfg = ProtocolConfig(n_pairs=4)
        rng = np.random.default_rng(20)
        group = prepare_group(cfg, IDEAL_SOURCE, DrawSource([rng]))
        # a brutal channel loses nearly everything
        brutal = ChannelParams(loss_prob=0.99)
        transmit_forward_group(group, brutal)
        first_check_group(group, cfg)
        assert group.depleted[0] == DEPLETED_FORWARD
        assert phase(group) is Phase.ABORTED
        with pytest.raises(BlockDepleted, match="pairs delivered"):
            group.raise_if_depleted(0)
        rc = RunConfig(sessions=1, seed=20, source=IDEAL_SOURCE, protocol=cfg, channel=brutal,
                       eve=EveStrategy(), eve_passes="both", defense=DefenseConfig())
        with pytest.raises(BlockDepleted, match="pairs delivered"):
            run_one_session(rc, rc.seed, 0)

    def test_encode_needs_two_pairs_and_draws_nothing_without_them(self):
        # member 1 has one pair left in ENCODING: the call stops before
        # member 0, ready to encode, draws anything
        cfg = ProtocolConfig(n_pairs=4)
        rngs = [np.random.default_rng([21, j]) for j in range(2)]
        group = prepare_group(cfg, IDEAL_SOURCE, DrawSource(rngs))
        group.fates[1, 1:] = FATE_CODE[PairFate.CONSUMED_CHECK]
        group.phases[:] = tuple(Phase).index(Phase.ENCODING)
        states = [copy.deepcopy(rng.bit_generator.state) for rng in rngs]
        words = {site: w.tolist() for site, w in group.draws.words.items()}
        arrays = [getattr(group, name).tobytes() for name in GROUP_ARRAYS]
        with pytest.raises(BlockDepleted, match="only 1 pairs left; need 2 to sample and encode"):
            encode_group(group, cfg)
        assert [rng.bit_generator.state for rng in rngs] == states
        assert {site: w.tolist() for site, w in group.draws.words.items()} == words
        assert [getattr(group, name).tobytes() for name in GROUP_ARRAYS] == arrays
