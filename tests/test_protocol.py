"""Tests for the session state machine, the two checks, and coding."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hyperqsdc.adversary import DefenseConfig, EveKind, EveStrategy
from hyperqsdc.channel import ChannelParams
from hyperqsdc.harness import GROUP_ROWS, RunConfig, _run_group
from hyperqsdc.hyperstate import Dof, EncodingOp, SourceParams
from hyperqsdc.protocol import (
    BlockDepleted,
    CheckReport,
    ConfigError,
    MessageSizeError,
    Phase,
    PhaseError,
    ProtocolConfig,
    SessionState,
    Verdict,
    decode_and_second_check,
    encode_message,
    first_check,
    message_capacity,
    normative_bits_mapping,
    prepare_block,
    transmit_forward,
    transmit_return,
)

IDEAL_SOURCE = SourceParams(r=1.0, phi=0.0)
CLEAN = ChannelParams()


def random_bits(n: int, rng: np.random.Generator) -> str:
    return "".join("1" if rng.random() < 0.5 else "0" for _ in range(n))


def run_session(
    cfg,
    rng,
    source=IDEAL_SOURCE,
    params=CLEAN,
    eve_forward=None,
    eve_return=None,
    defense=None,
    message=None,
):
    """Drive one full session; returns (session, sent, decoded, report2)."""
    session = prepare_block(cfg, source)
    transmit_forward(session, params, rng, eve=eve_forward, defense=defense)
    report1 = first_check(session, rng, cfg)
    if report1.verdict is Verdict.FAIL:
        return session, None, None, None
    if message is None:
        message = random_bits(message_capacity(session, cfg), rng)
    encode_message(session, message, rng, cfg)
    transmit_return(session, params, rng, eve=eve_return)
    decoded, report2 = decode_and_second_check(session, rng, cfg)
    return session, message, decoded, report2


class TestConfig:
    def test_normative_mapping_example(self):
        # chunk 0111: high bits 01 -> i = 2, low bits 11 -> j = 4
        assert normative_bits_mapping()[EncodingOp(2, 4)] == "0111"

    def test_mapping_is_bijective(self):
        mapping = normative_bits_mapping()
        assert len(mapping) == 16
        assert len(set(mapping.values())) == 16
        assert all(len(v) == 4 for v in mapping.values())

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

    def test_rejects_corrupt_mapping(self):
        mapping = normative_bits_mapping()
        mapping[EncodingOp(1, 1)] = mapping[EncodingOp(1, 2)]
        with pytest.raises(ConfigError):
            ProtocolConfig(bits_mapping=mapping)


class TestCheckReport:
    def test_verdict_is_strictly_greater_than_threshold(self):
        at = CheckReport.build(20, 1, 0, 1, threshold=0.05)
        assert at.verdict is Verdict.PASS  # rate exactly at threshold passes
        above = CheckReport.build(20, 2, 0, 2, threshold=0.05)
        assert above.verdict is Verdict.FAIL

    def test_verdict_uses_worst_dof(self):
        report = CheckReport.build(10, 0, 9, 9, threshold=0.5)
        assert report.verdict is Verdict.FAIL


class TestIdealRoundTrip:
    def test_message_survives_bit_exact(self):
        cfg = ProtocolConfig(n_pairs=40)
        for seed in range(20):
            rng = np.random.default_rng([1000, seed])
            session, sent, decoded, report = run_session(cfg, rng)
            assert session.phase is Phase.ACCEPTED
            assert decoded == sent
            assert report.verdict is Verdict.PASS

    def test_zero_noise_never_aborts(self):
        cfg = ProtocolConfig(n_pairs=24)
        for seed in range(200):
            rng = np.random.default_rng([1001, seed])
            session, _, _, report2 = run_session(cfg, rng)
            assert session.phase is Phase.ACCEPTED
            assert session.first_report.n_pol_errors == 0
            assert session.first_report.n_spa_errors == 0
            assert report2.n_pol_errors == 0 and report2.n_spa_errors == 0

    def test_capacity_accounting(self):
        cfg = ProtocolConfig(n_pairs=112, sample_fraction_first=0.05, sample_fraction_second=0.05)
        rng = np.random.default_rng(7)
        session = prepare_block(cfg, IDEAL_SOURCE)
        transmit_forward(session, CLEAN, rng)
        first_check(session, rng, cfg)
        assert len(session.first_sample_positions) == 6
        assert message_capacity(session, cfg) == 400
        message = random_bits(400, rng)
        encode_message(session, message, rng, cfg)
        assert len(session.second_sample_positions) == 6
        assert len(session.message_positions) == 100


class TestSampling:
    def test_samples_and_message_positions_are_disjoint(self):
        cfg = ProtocolConfig(n_pairs=60, sample_fraction_first=0.2, sample_fraction_second=0.2)
        rng = np.random.default_rng(8)
        session, _, _, _ = run_session(cfg, rng)
        first = set(session.first_sample_positions)
        second = set(session.second_sample_positions)
        msg = set(session.message_positions)
        assert first & second == set()
        assert first & msg == set()
        assert second & msg == set()
        assert first | second | msg == set(range(60))

    def test_lost_positions_never_sampled_or_encoded(self):
        cfg = ProtocolConfig(n_pairs=80, sample_fraction_first=0.2, sample_fraction_second=0.2)
        rng = np.random.default_rng(9)
        session, sent, decoded, _ = run_session(cfg, rng, params=ChannelParams(loss_prob=0.25))
        lost = {
            k
            for k, f in enumerate(session.fate)
            if f.value in ("lost_forward", "lost_return")
        }
        assert lost  # the draw above loses some pairs
        assert lost & set(session.first_sample_positions) == set()
        touched = set(session.second_sample_positions) | set(session.message_positions)
        # return-pass losses may hit encoded pairs, forward losses may not
        forward_lost = {k for k, f in enumerate(session.fate) if f.value == "lost_forward"}
        assert forward_lost & touched == set()

    def test_return_loss_shrinks_decoded_message(self):
        cfg = ProtocolConfig(n_pairs=80, sample_fraction_first=0.1, sample_fraction_second=0.1)
        rng = np.random.default_rng(10)
        session, sent, decoded, _ = run_session(cfg, rng, params=ChannelParams(loss_prob=0.2))
        assert session.phase is Phase.ACCEPTED
        kept = session.surviving_message_positions
        index = {pos: k for k, pos in enumerate(session.message_positions)}
        expected = "".join(sent[4 * index[pos] : 4 * index[pos] + 4] for pos in kept)
        assert decoded == expected


class TestPhaseMachine:
    def test_full_walk_hits_every_phase_in_order(self):
        cfg = ProtocolConfig(n_pairs=16)
        rng = np.random.default_rng(11)
        session = prepare_block(cfg, IDEAL_SOURCE)
        seen = [session.phase]
        transmit_forward(session, CLEAN, rng)
        seen.append(session.phase)
        first_check(session, rng, cfg)
        seen.append(session.phase)
        encode_message(session, random_bits(message_capacity(session, cfg), rng), rng, cfg)
        seen.append(session.phase)
        transmit_return(session, CLEAN, rng)
        seen.append(session.phase)
        decode_and_second_check(session, rng, cfg)
        seen.append(session.phase)
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
    def test_out_of_order_ops_raise_phase_error(self, calls):
        cfg = ProtocolConfig(n_pairs=12)
        rng = np.random.default_rng(12)
        session = prepare_block(cfg, IDEAL_SOURCE)
        legal_next = {
            Phase.PREPARED: "forward",
            Phase.FIRST_CHECK: "check1",
            Phase.ENCODING: "encode",
            Phase.SA_IN_FLIGHT_2: "back",
            Phase.DECODING: "decode",
        }

        def invoke(name):
            if name == "forward":
                transmit_forward(session, CLEAN, rng)
            elif name == "check1":
                first_check(session, rng, cfg)
            elif name == "encode":
                encode_message(
                    session, random_bits(message_capacity(session, cfg), rng), rng, cfg
                )
            elif name == "back":
                transmit_return(session, CLEAN, rng)
            else:
                decode_and_second_check(session, rng, cfg)

        for name in calls:
            if legal_next.get(session.phase) == name:
                invoke(name)  # must not raise
            else:
                before = session.phase
                with pytest.raises(PhaseError):
                    invoke(name)
                assert session.phase is before

    def test_aborted_first_check_blocks_everything(self):
        cfg = ProtocolConfig(n_pairs=30, sample_fraction_first=0.4, error_threshold=0.0)
        rng = np.random.default_rng(13)
        eve = EveStrategy(kind=EveKind.INTERCEPT_RESEND)
        session = prepare_block(cfg, IDEAL_SOURCE)
        transmit_forward(session, CLEAN, rng, eve=eve)
        report = first_check(session, rng, cfg)
        assert report.verdict is Verdict.FAIL
        assert session.phase is Phase.ABORTED
        with pytest.raises(PhaseError):
            encode_message(session, "0000", rng, cfg)


class TestMessageValidation:
    def make_encoding_session(self):
        cfg = ProtocolConfig(n_pairs=20)
        rng = np.random.default_rng(14)
        session = prepare_block(cfg, IDEAL_SOURCE)
        transmit_forward(session, CLEAN, rng)
        first_check(session, rng, cfg)
        return cfg, rng, session

    def test_wrong_length_names_expected_capacity(self):
        cfg, rng, session = self.make_encoding_session()
        expected = message_capacity(session, cfg)
        with pytest.raises(MessageSizeError, match=str(expected)):
            encode_message(session, "0" * (expected + 4), rng, cfg)

    def test_non_bits_rejected(self):
        cfg, rng, session = self.make_encoding_session()
        with pytest.raises(ValueError, match="0s and 1s"):
            encode_message(session, "01x0" * (message_capacity(session, cfg) // 4), rng, cfg)


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
            for outcome in _run_group(rc, rc.seed, indices, record=False):
                assert not isinstance(outcome, BlockDepleted)
                session, _ = outcome
                report2 = session.second_report
                assert report2 is not None, "first check must pass: forward pass is clean"
                assert report2.n_checked == 50
                if session.phase is Phase.ACCEPTED:
                    misses += 1
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
        session, sent, decoded, report2 = run_session(cfg, rng, eve_return=eve)
        assert report2.verdict is Verdict.FAIL
        assert decoded is None
        assert session.decoded_message is None
        assert session.phase is Phase.ABORTED


class TestTranscript:
    def run_and_dump(self, seed, **kwargs):
        cfg = ProtocolConfig(n_pairs=24)
        rng = np.random.default_rng(seed)
        session, sent, decoded, _ = run_session(cfg, rng, **kwargs)
        return session, sent, decoded, "\n".join(json.dumps(e) for e in session.transcript)

    def test_event_order_and_phases(self):
        session, _, _, _ = self.run_and_dump(16)
        kinds = [e["event"] for e in session.transcript]
        assert kinds == ["prepare", "transit", "first_check", "encode", "transit", "second_check", "result"]
        phases = [e["phase"] for e in session.transcript]
        assert phases == [
            "Prepared", "SAInFlight1", "FirstCheck", "Encoding",
            "SAInFlight2", "SecondCheck", "Accepted",
        ]

    def test_replay_reproduces_verdict_and_message(self):
        s1, sent1, dec1, dump1 = self.run_and_dump(17)
        s2, sent2, dec2, dump2 = self.run_and_dump(17)
        assert dump1 == dump2
        assert (sent1, dec1, s1.phase) == (sent2, dec2, s2.phase)
        _, _, _, dump3 = self.run_and_dump(18)
        assert dump1 != dump3

    def test_events_carry_stable_fields(self):
        session, _, _, _ = self.run_and_dump(19, params=ChannelParams(loss_prob=0.1))
        by_kind = {e["event"]: e for e in session.transcript}
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
        session = prepare_block(cfg, IDEAL_SOURCE)
        # a brutal channel loses nearly everything
        transmit_forward(session, ChannelParams(loss_prob=0.99), rng)
        with pytest.raises(BlockDepleted):
            first_check(session, rng, cfg)
