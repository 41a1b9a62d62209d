"""Run orchestration tests: config parsing, determinism, pooled stats, CLI."""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperqsdc
from hyperqsdc.adversary import BasisPolicy, EveKind, PnsKind
from hyperqsdc.cli import build_parser, main
from hyperqsdc.draws import DrawSource, session_generators
from hyperqsdc.harness import (
    ABORT_REASONS,
    EXAMPLE_CONFIG,
    GROUP_ROWS,
    PHASES,
    SWEEP_AXES,
    SWEEP_COLUMNS,
    RunStats,
    _run_group,
    attack_sweep,
    parse_run_config,
    run,
    run_one_session,
    scan_csv,
    source_fidelity_scan,
    stats_text,
    sweep_csv,
)
from hyperqsdc.hyperstate import Dof
from hyperqsdc.protocol import (
    DEPLETED_FORWARD,
    DEPLETED_RETURN,
    ConfigError,
    decode_group,
    encode_group,
    first_check_group,
    prepare_group,
    transmit_forward_group,
    transmit_return_group,
)

from oracles import source_fidelity_formula


def config_with(**overrides) -> str:
    """EXAMPLE_CONFIG with `key = value` lines swapped in by key name."""
    lines = []
    for line in EXAMPLE_CONFIG.splitlines():
        key = line.split("=")[0].strip()
        if key in overrides:
            line = f"{key} = {overrides.pop(key)}"
        lines.append(line)
    assert not overrides, f"keys not found in example config: {sorted(overrides)}"
    return "\n".join(lines) + "\n"


# every INI key set away from its default
FULL_CONFIG = dict(
    sessions="7",
    r="0.5",
    phi="0.25",
    n_pairs="40",
    sample_fraction_first="0.2",
    sample_fraction_second="0.15",
    error_threshold="0.5",
    loss_prob="0.1",
    pauli_p_pol="0.02",
    pauli_p_spa="0.03",
    kind="intercept_resend",
    dofs="pol",
    basis_policy="fixed_z",
    passes="forward",
    filter_enabled="true",
    filter_tolerance="0.08",
    pns_enabled="yes",
    pns_kind="beamsplitter5050",
)


class TestConfigParsing:
    def test_empty_text_gives_defaults(self):
        rc = parse_run_config("")
        assert rc.sessions == 100
        assert rc.protocol.n_pairs == 112
        assert rc.eve.kind is EveKind.NONE
        assert rc.eve.dof_mask == frozenset({Dof.POL, Dof.SPA})
        assert not rc.defense.filter_enabled and not rc.defense.pns_enabled

    def test_example_config_parses_to_defaults(self):
        assert parse_run_config(EXAMPLE_CONFIG) == parse_run_config("")

    def test_full_round_trip(self):
        rc = parse_run_config(config_with(**FULL_CONFIG))
        assert rc.sessions == 7
        assert rc.source.r == 0.5 and rc.source.phi == 0.25
        assert rc.protocol.n_pairs == 40
        assert rc.protocol.sample_fraction_first == 0.2
        assert rc.protocol.error_threshold == 0.5
        assert rc.channel.loss_prob == 0.1
        assert rc.channel.pauli_p_pol == 0.02 and rc.channel.pauli_p_spa == 0.03
        assert rc.eve.kind is EveKind.INTERCEPT_RESEND
        assert rc.eve.dof_mask == frozenset({Dof.POL})
        assert rc.eve.basis_policy is BasisPolicy.FIXED_Z
        assert rc.eve_passes == "forward"
        assert rc.defense.filter_enabled and rc.defense.filter_tolerance == 0.08
        assert rc.defense.pns_enabled and rc.defense.pns_kind is PnsKind.BEAMSPLITTER_5050

    def test_config_echo_is_pinned(self):
        rc = parse_run_config(config_with(**FULL_CONFIG))
        echo = json.loads(stats_text(rc, 5, RunStats()))["config"]
        expected = {
            "seed": 5,
            "sessions": 7,
            "source": {"r": 0.5, "phi": 0.25},
            "protocol": {
                "n_pairs": 40,
                "sample_fraction_first": 0.2,
                "sample_fraction_second": 0.15,
                "error_threshold": 0.5,
            },
            "channel": {"loss_prob": 0.1, "pauli_p_pol": 0.02, "pauli_p_spa": 0.03},
            "adversary": {
                "kind": "intercept_resend",
                "dofs": ["pol"],
                "basis_policy": "fixed_z",
                "passes": "forward",
            },
            "defense": {
                "filter_enabled": True,
                "filter_tolerance": 0.08,
                "pns_enabled": True,
                "pns_kind": "beamsplitter5050",
            },
        }
        assert echo == expected
        assert json.dumps(echo) == json.dumps(expected)  # key order too

    def test_integer_fields_accept_integral_spellings(self):
        assert parse_run_config("[protocol]\nn_pairs = 112.0\n") == parse_run_config("")
        rc = parse_run_config(config_with(sessions="2"))
        table = list(csv.DictReader(io.StringIO(
            sweep_csv("n_pairs", attack_sweep(rc, "n_pairs", ["48", "112.0"])))))
        assert [row["value"] for row in table] == ["48", "112"]

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match=r"\[laser\]"):
            parse_run_config("[laser]\npower = 9000\n")

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match=r"\[protocol\] n_photons"):
            parse_run_config("[protocol]\nn_photons = 3\n")

    @pytest.mark.parametrize(
        "section, key, value, needle",
        [
            ("run", "sessions", "many", "sessions"),
            ("run", "seed", "-1", "seed"),
            ("source", "r", "one", "r"),
            ("channel", "loss_prob", "1.5", "loss"),
            ("protocol", "n_pairs", "112.7", "n_pairs"),
            ("adversary", "kind", "ninja", "adversary kind"),
            ("adversary", "dofs", "pol,energy", "energy"),
            ("adversary", "basis_policy", "diagonal", "basis_policy"),
            ("adversary", "passes", "sideways", "passes"),
            ("defense", "pns_kind", "sponge", "pns_kind"),
            ("defense", "filter_enabled", "maybe", "filter_enabled"),
            # parses as an infinite float, which the stats file could not hold as JSON
            ("defense", "filter_tolerance", "1e400", "filter_tolerance"),
            # finite, but twice it, the widest invisible probe offset, is not
            ("defense", "filter_tolerance", "1e308", "filter_tolerance"),
            # [DEFAULT] keys would reach every section unchecked
            ("DEFAULT", "warp", "9", r"\[DEFAULT\] warp"),
            ("DEFAULT", "n_pairs", "40\n[protocol]", r"\[DEFAULT\] n_pairs"),
        ],
    )
    def test_bad_values_name_the_field(self, section, key, value, needle):
        with pytest.raises(ConfigError, match=needle) as caught:
            parse_run_config(f"[{section}]\n{key} = {value}\n")
        assert "\n" not in str(caught.value)  # the CLI prints it as one line

    def test_not_ini_rejected(self):
        with pytest.raises(ConfigError, match="INI"):
            parse_run_config("sessions: 4\n  - nope\n")

    def test_nonpositive_sessions_rejected(self):
        with pytest.raises(ConfigError, match="sessions"):
            parse_run_config("[run]\nsessions = 0\n")

    def test_sessions_beyond_32_bit_indices_rejected(self):
        assert parse_run_config(f"[run]\nsessions = {2**32}\n").sessions == 2**32
        with pytest.raises(ConfigError, match="sessions"):
            parse_run_config(f"[run]\nsessions = {2**32 + 1}\n")


# master seeds of 1, 1, 2, 3, 4 and 6 32-bit words: with the session index
# and Eve's coin tag they leave SeedSequence's 4-word pool short, fill it
# and overflow it
SEEDS = (0, 2**32 - 1, 2**32, 2**64, 2**96 + 7, 2**160)
TAILS = ((), (0xE7E,))


def assert_seeded_like_default_rng(seed: int, indices: list, tail: tuple) -> None:
    rngs = session_generators(seed, indices, *tail)
    assert len(rngs) == len(indices)
    for k, rng in zip(indices, rngs):
        reference = np.random.default_rng([seed, k, *tail])
        words = np.random.SeedSequence([seed, k, *tail]).generate_state(4, np.uint64)
        assert np.array_equal(rng.bit_generator.seed_seq.generate_state(4, np.uint64), words)
        assert rng.bit_generator.state == reference.bit_generator.state
        assert np.array_equal(rng.random(3), reference.random(3))
        assert np.array_equal(rng.integers(16, size=4), reference.integers(16, size=4))
        assert np.array_equal(rng.choice(40, size=6, replace=False),
                              reference.choice(40, size=6, replace=False))


class TestSessionGenerators:
    """One hash pass seeds each session's generator as ``default_rng([seed, k, *tail])`` does."""

    @pytest.mark.parametrize("tail", TAILS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_listed_seeds(self, seed, tail):
        for indices in ([], [5], [0, 2, 9, 2**32 - 1], range(3, 7)):
            assert_seeded_like_default_rng(seed, indices, tail)

    @given(seed=st.sampled_from(SEEDS) | st.integers(min_value=0, max_value=2**200),
           indices=st.lists(st.integers(min_value=0, max_value=2**32 - 1), max_size=5,
                            unique=True),
           tail=st.sampled_from(TAILS))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_any_seed_and_indices(self, seed, indices, tail):
        assert_seeded_like_default_rng(seed, indices, tail)

    def test_seed_words_are_only_four_uint64(self):
        seed_seq = session_generators(3, [1])[0].bit_generator.seed_seq
        for n_words, dtype in ((4, np.uint32), (8, np.uint32), (2, np.uint64)):
            with pytest.raises(ValueError, match="4, uint64"):
                seed_seq.generate_state(n_words, dtype)

    @pytest.mark.parametrize("indices", [[2**32], [-1], [0, 2**64], np.array([2**33])],
                             ids=["2**32", "negative", "2**64", "int64_2**33"])
    def test_index_beyond_32_bits_raises(self, indices):
        with pytest.raises(ValueError, match="2\\*\\*32"):
            session_generators(0, indices)

    def test_run_one_session_beyond_32_bits_raises(self):
        rc = parse_run_config(config_with(sessions="1", n_pairs="16"))
        with pytest.raises(ValueError, match="2\\*\\*32"):
            run_one_session(rc, 0, 2**32)

    @pytest.mark.parametrize("seed, tail", [(-1, ()), (-(2**40), ()), (3, (-1,)), (3, (0xE7E, -5))],
                             ids=["seed_-1", "seed_-2**40", "tail_-1", "second_tail_-5"])
    def test_negative_seed_words_raise(self, seed, tail):
        # as ``default_rng`` does; split into 32-bit words, a negative value never ends
        with pytest.raises(ValueError):
            np.random.default_rng([seed, 0, *tail])
        for indices in ([], [0], [0, 7]):
            with pytest.raises(ValueError, match="non-negative"):
                session_generators(seed, indices, *tail)

    def test_run_with_a_negative_master_seed_raises(self):
        rc = parse_run_config(config_with(sessions="2", n_pairs="16"))
        with pytest.raises(ValueError, match="non-negative"):
            run(rc, master_seed=-1)
        with pytest.raises(ValueError, match="non-negative"):
            run_one_session(rc, -5, 0)


class TestDeterminism:
    def test_same_config_and_seed_byte_identical(self):
        rc = parse_run_config(config_with(sessions="30", n_pairs="48"))
        a, _ = run(rc, 42)
        b, _ = run(rc, 42)
        assert stats_text(rc, 42, a) == stats_text(rc, 42, b)

    def test_transcripts_reproduce_too(self):
        rc = parse_run_config(config_with(sessions="5", n_pairs="32", loss_prob="0.1"))
        ta, tb = io.StringIO(), io.StringIO()
        run(rc, 9, ta)
        run(rc, 9, tb)
        assert ta.getvalue() == tb.getvalue()
        assert {json.loads(line)["session"] for line in ta.getvalue().splitlines()} == set(range(5))

    def test_different_seed_differs(self):
        rc = parse_run_config(config_with(sessions="5", kind="intercept_resend"))
        a, _ = run(rc, 1)
        b, _ = run(rc, 2)
        assert stats_text(rc, 1, a) != stats_text(rc, 2, b)

    def test_wall_time_never_serialized(self):
        rc = parse_run_config(config_with(sessions="3", n_pairs="16"))
        stats, _ = run(rc, 0)
        assert stats.wall_time > 0
        assert "wall_time" not in stats_text(rc, 0, stats)


class TestIdealRunStats:
    def test_clean_run_is_perfect(self):
        rc = parse_run_config(config_with(sessions="50"))
        stats, _ = run(rc, 13)
        doc = json.loads(stats_text(rc, 13, stats))["results"]
        assert doc["accepted"] == 50 and doc["aborted"] == 0
        assert doc["first_check"]["detection_rate"] == 0.0
        assert doc["second_check"]["detection_rate"] == 0.0
        assert doc["message_bit_error_rate"] == 0.0
        assert doc["bits_per_photon_transit"] == 2.0
        assert doc["eve_bell_guess_accuracy"] is None

    def test_capacity_accounting(self):
        # 112 pairs at 5% sampling: 6 + 6 consumed, 100 message pairs, 400 bits
        rc = parse_run_config(config_with(sessions="4"))
        stats, _ = run(rc, 0)
        assert stats.first_check.n_checked == 4 * 6
        assert stats.second_check.n_checked == 4 * 6
        assert stats.message_bits_delivered == 4 * 400
        assert stats.message_pairs_encoded == 4 * 100

    def test_depleted_blocks_count_as_aborted(self):
        rc = parse_run_config(config_with(sessions="6", n_pairs="4", loss_prob="0.95"))
        stats, _ = run(rc, 2)
        assert stats.sessions == 6
        assert stats.depleted >= 1
        assert stats.aborted >= stats.depleted

    def test_return_loss_lowers_bits_per_transit(self):
        rc = parse_run_config(config_with(sessions="30", loss_prob="0.15"))
        stats, _ = run(rc, 8)
        assert stats.lost_forward > 0 and stats.lost_return > 0
        assert stats.bits_per_photon_transit < 2.0
        assert stats.message_bit_error_rate == 0.0


def abort_reason_alone(rc, seed: int, k: int):
    """Why session k of a run ends, driven phase by phase as a group of one; None if accepted."""
    cfg = rc.protocol
    group = prepare_group(cfg, rc.source, DrawSource([np.random.default_rng([seed, k])]))
    eve = rc.eve if rc.eve_passes in ("both", "forward") else None
    transmit_forward_group(group, rc.channel, eve=eve, defense=rc.defense)
    first_check_group(group, cfg)
    if group.depleted[0] == DEPLETED_FORWARD:
        return "depleted_forward"
    if group.failed[0, 0]:
        return "first_check_fail"
    encode_group(group, cfg)
    eve = rc.eve if rc.eve_passes in ("both", "return") else None
    transmit_return_group(group, rc.channel, eve=eve)
    decode_group(group, cfg)
    if group.depleted[0] == DEPLETED_RETURN:
        return "depleted_return"
    return "second_check_fail" if group.failed[0, 1] else None


class TestAbortReasons:
    CONFIGS = (
        # heavy loss on 8-pair blocks: depleted before either check
        dict(sessions="40", n_pairs="8", seed="4", loss_prob="0.45",
             sample_fraction_first="0.1", sample_fraction_second="0.1"),
        # interception on both passes against a loose threshold: caught at either check
        dict(sessions="40", n_pairs="24", seed="3", kind="intercept_resend",
             error_threshold="0.3", sample_fraction_first="0.1", sample_fraction_second="0.1"),
    )

    def test_reasons_sum_to_aborted_and_match_sessions_run_alone(self):
        seen = dict.fromkeys(ABORT_REASONS, 0)
        for overrides in self.CONFIGS:
            rc = parse_run_config(config_with(**overrides))
            stats, _ = run(rc)
            reasons = stats.abort_reasons
            assert tuple(reasons) == ABORT_REASONS
            assert sum(reasons.values()) == stats.aborted
            assert reasons["depleted_forward"] + reasons["depleted_return"] == stats.depleted
            alone = [abort_reason_alone(rc, rc.seed, k) for k in range(rc.sessions)]
            assert reasons == {reason: alone.count(reason) for reason in ABORT_REASONS}
            for reason, count in reasons.items():
                seen[reason] += count
        assert all(seen.values()), seen  # every reason occurs in these runs

    def test_reasons_stay_out_of_the_stats_file(self):
        rc = parse_run_config(config_with(**self.CONFIGS[0]))
        stats, _ = run(rc)
        text = stats_text(rc, rc.seed, stats)
        assert not any(reason in text for reason in ABORT_REASONS)
        stats.abort_reasons = dict.fromkeys(ABORT_REASONS, 0)
        assert stats_text(rc, rc.seed, stats) == text


class TestAdversaryRuns:
    def test_both_pass_guess_accuracy(self):
        # lenient threshold keeps sessions alive; accuracy pools to ~9/64
        rc = parse_run_config(
            config_with(sessions="400", kind="intercept_resend", error_threshold="1.0")
        )
        stats, _ = run(rc, 21)
        assert stats.eve_guesses >= 40000
        assert math.isclose(stats.eve_bell_guess_accuracy, 9 / 64, abs_tol=0.01)

    def test_return_only_interception(self):
        rc = parse_run_config(
            config_with(
                sessions="200", kind="intercept_resend", passes="return", error_threshold="1.0"
            )
        )
        stats, _ = run(rc, 33)
        assert stats.first_check.rates()["detection_rate"] == 0.0
        assert math.isclose(stats.second_check.rates()["detection_rate"], 0.75, abs_tol=0.03)
        # Eve saw each pair once, so her op guesses are blind
        assert math.isclose(stats.eve_bell_guess_accuracy, 1 / 16, abs_tol=0.01)

    def test_interception_rarely_survives_first_check(self):
        # 200 samples at threshold 0.05: the binomial tail below the
        # threshold is astronomically small when the hit rate is 7/16
        rc = parse_run_config(
            config_with(sessions="100", kind="intercept_resend", n_pairs="250",
                        sample_fraction_first="0.8")
        )
        stats, _ = run(rc, 5)
        assert stats.first_check.n_checked == 100 * 200
        assert stats.aborted >= 99

    def test_first_check_miss_rate_decays_like_nine_sixteenths(self):
        # 10 samples at zero threshold: sessions that pass the first check
        # occur at rate (9/16)^10, i.e. about 10 in 3000
        sessions = 3000
        rc = parse_run_config(
            config_with(sessions=str(sessions), n_pairs="12", sample_fraction_first="0.84",
                        error_threshold="0.0", kind="intercept_resend")
        )
        # the sessions run in the lockstep groups that run() uses
        per_group = GROUP_ROWS // rc.protocol.n_pairs
        survived = 0
        for first in range(0, sessions, per_group):
            group = _run_group(rc, 55, range(first, min(first + per_group, sessions)))
            assert not group.depleted.any()
            assert (group.counts[:, 0, 0] == 10).all()
            survived += np.count_nonzero(~group.failed[:, 0])
        expected = sessions * (9 / 16) ** 10
        assert 0.3 * expected <= survived <= 3.0 * expected

    def test_forward_collapse_persists_to_second_check(self):
        # pairs Eve broke on the way out stay broken: the hidden-sample Bell
        # comparison sees the same 1/2 per-DOF mismatch as a return attack
        rc = parse_run_config(
            config_with(sessions="200", kind="intercept_resend", passes="forward",
                        error_threshold="1.0")
        )
        stats, _ = run(rc, 17)
        assert math.isclose(stats.first_check.rates()["detection_rate"], 7 / 16, abs_tol=0.03)
        assert math.isclose(stats.second_check.rates()["detection_rate"], 3 / 4, abs_tol=0.03)

    def test_trojan_probes_filtered_without_aborts(self):
        rc = parse_run_config(
            config_with(sessions="20", kind="trojan_invisible", passes="forward",
                        filter_enabled="true")
        )
        stats, _ = run(rc, 4)
        assert stats.trojan_signals == 20 * 112
        assert stats.trojan_filtered == stats.trojan_signals
        assert stats.accepted == 20
        assert stats.first_check.rates()["detection_rate"] == 0.0

    def test_multiphoton_pns_alarm_rates(self):
        base = config_with(sessions="20", kind="trojan_multiphoton", passes="forward",
                           pns_enabled="true")
        ideal, _ = run(parse_run_config(base), 6)
        assert ideal.pns_alarms == ideal.trojan_signals == 20 * 112
        bs, _ = run(parse_run_config(base.replace("pns_kind = ideal",
                                                  "pns_kind = beamsplitter5050")), 6)
        # two-photon probes beat a 50/50 splitter half the time
        assert math.isclose(bs.pns_alarms / bs.trojan_signals, 0.5, abs_tol=0.03)

    def test_defenses_off_never_flag_anything(self):
        rc = parse_run_config(config_with(sessions="10", kind="trojan_delay", passes="forward"))
        stats, _ = run(rc, 1)
        assert stats.trojan_signals == 10 * 112
        assert stats.trojan_filtered == 0 and stats.pns_alarms == 0
        assert stats.accepted == 10


class TestSweep:
    def test_pauli_axis_rates_track_parameter(self):
        # 480 sessions give 2,880 checked pairs per point: abs_tol 0.03 is a 4-sigma band
        rc = parse_run_config(config_with(sessions="480", error_threshold="1.0"))
        rows = attack_sweep(rc, "pauli_p", [0.0, 0.3])
        text = sweep_csv("pauli_p", rows)
        table = list(csv.DictReader(io.StringIO(text)))
        assert tuple(table[0]) == SWEEP_COLUMNS
        assert float(table[0]["first_detection"]) == 0.0
        # 2p/3 = 0.2 per DOF at p = 0.3
        assert math.isclose(float(table[1]["first_error_pol"]), 0.2, abs_tol=0.03)
        assert math.isclose(float(table[1]["first_error_spa"]), 0.2, abs_tol=0.03)
        assert table[0]["eve_bell_guess_accuracy"] == ""

    def test_strategy_axis(self):
        rc = parse_run_config(config_with(sessions="40", error_threshold="1.0"))
        rows = attack_sweep(rc, "strategy", ["none", "intercept_resend"])
        table = list(csv.DictReader(io.StringIO(sweep_csv("strategy", rows))))
        assert float(table[0]["first_detection"]) == 0.0
        assert float(table[1]["first_detection"]) > 0.3
        assert table[1]["value"] == "intercept_resend"

    def test_sweep_reuses_master_seed_per_point(self):
        rc = parse_run_config(config_with(sessions="10"))
        rows_a = attack_sweep(rc, "loss_prob", [0.1])
        rows_b = attack_sweep(rc, "loss_prob", [0.1])
        assert sweep_csv("loss_prob", rows_a) == sweep_csv("loss_prob", rows_b)

    def test_bad_axis_and_empty_values_rejected(self):
        rc = parse_run_config(config_with(sessions="2"))
        with pytest.raises(ConfigError, match="axis"):
            attack_sweep(rc, "n_teeth", [1])
        with pytest.raises(ConfigError, match="value"):
            attack_sweep(rc, "loss_prob", [])


class TestSourceScan:
    def test_grid_matches_closed_form(self):
        r_vals = [0.0, 0.5, 1.0, 2.0]
        phi_vals = [0.0, np.pi / 2, np.pi]
        rows = source_fidelity_scan(r_vals, phi_vals)
        assert len(rows) == 12
        for r, phi, fid, pol_z, pol_x, spa_z, spa_x in rows:
            assert math.isclose(fid, source_fidelity_formula(r, phi), abs_tol=1e-12)
            # polarization half is always ideal in this source model
            assert abs(pol_z) < 1e-12 and abs(pol_x) < 1e-12
            assert abs(spa_z) < 1e-12

    def test_anchor_rows(self):
        rows = {(r, phi): rest for r, phi, *rest in source_fidelity_scan([1.0, 0.5], [0.0, np.pi])}
        fid, _, _, _, spa_x = rows[(1.0, 0.0)]
        assert abs(fid - 1.0) < 1e-12 and abs(spa_x) < 1e-12
        fid, _, _, _, spa_x = rows[(1.0, np.pi)]
        assert abs(fid) < 1e-12 and abs(spa_x - 1.0) < 1e-12
        fid, *_ = rows[(0.5, 0.0)]
        assert abs(fid - 0.9) < 1e-12

    def test_csv_shape(self):
        text = scan_csv(source_fidelity_scan([1.0], [0.0]))
        table = list(csv.DictReader(io.StringIO(text)))
        assert list(table[0]) == ["r", "phi", "fidelity", "err_pol_z", "err_pol_x",
                                  "err_spa_z", "err_spa_x"]
        assert len(table) == 1

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError, match="scan"):
            source_fidelity_scan([], [0.0])

    @pytest.mark.parametrize("r", [1e200, 1e-200])
    def test_extreme_ratio_is_exact_and_runs(self, r, tmp_path):
        # the source normalization must not overflow (or warn) for any finite r
        config = tmp_path / "run.ini"
        config.write_text(config_with(r=repr(r), sessions="4"))
        out = tmp_path / "stats.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = source_fidelity_scan([r], [0.0, 1.0, np.pi])
            assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        for _, phi, fid, pol_z, pol_x, spa_z, spa_x in rows:
            expected = source_fidelity_formula(r, phi)
            assert abs(fid - expected) <= 1e-12
            # an X-basis spatial check errs exactly when the pair is not the ideal one
            assert abs(spa_x - (1.0 - expected)) <= 1e-12
            assert abs(pol_z) < 1e-12 and abs(pol_x) < 1e-12 and abs(spa_z) < 1e-12
        assert json.loads(out.read_text())["results"]["sessions"] == 4


def package_env() -> dict:
    """Environment for a subprocess that must import the package this suite imported.

    A relative PYTHONPATH (the Tier-1 `PYTHONPATH=src`) means nothing from
    another working directory, so the subprocess gets the imported package's
    parent directory first, then the inherited entries made absolute
    against this process's working directory.
    """
    inherited = [str(Path(entry).resolve())
                 for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep) if entry]
    package_root = str(Path(hyperqsdc.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([package_root, *inherited])}


def run_cli(*argv, cwd):
    """Run `python -m hyperqsdc.cli` from `cwd` on the package this suite imported."""
    return subprocess.run(
        [sys.executable, "-m", "hyperqsdc.cli", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=package_env(),
    )


class TestCli:
    @pytest.fixture()
    def config_path(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(config_with(sessions="12", n_pairs="48", seed="7"))
        return path

    def test_simulate_writes_stats_and_transcripts(self, tmp_path, config_path):
        out = tmp_path / "stats.json"
        proc = run_cli("simulate", "--config", str(config_path), "--seed", "5",
                       "--out", str(out), "--transcripts", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(out.read_text())
        assert doc["config"]["seed"] == 5
        assert doc["results"]["accepted"] == 12
        lines = (tmp_path / "stats.json.transcripts.jsonl").read_text().splitlines()
        events = [json.loads(line) for line in lines]
        assert events[0]["event"] == "prepare" and events[0]["session"] == 0
        assert {e["session"] for e in events} == set(range(12))

    def test_simulate_byte_identical_across_invocations(self, tmp_path, config_path):
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out_a, out_b):
            proc = run_cli("simulate", "--config", str(config_path), "--seed", "3",
                           "--out", str(out), cwd=tmp_path)
            assert proc.returncode == 0, proc.stderr
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path, config_path):
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        proc = run_cli("simulate", "--config", str(config_path), "--out", str(out_a),
                       cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        proc = run_cli("simulate", "--config", str(config_path), "--seed", "3",
                       "--out", str(out_b), cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(out_a.read_text())["config"]["seed"] == 7  # [run] seed in the file
        assert json.loads(out_b.read_text())["config"]["seed"] == 3  # flag wins

    def test_metrics_file_leaves_stats_bytes_alone(self, tmp_path, config_path):
        plain, timed, metrics = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "m.json"
        proc = run_cli("simulate", "--config", str(config_path), "--out", str(plain),
                       cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        proc = run_cli("simulate", "--config", str(config_path), "--out", str(timed),
                       "--metrics", str(metrics), cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert plain.read_bytes() == timed.read_bytes()
        doc = json.loads(metrics.read_text())
        seconds = doc["phase_seconds"]
        assert tuple(seconds) == PHASES
        assert all(s >= 0.0 for s in seconds.values())
        # laps tile a part of the run's wall time; 1e-9 s covers float summation
        assert 0.0 < sum(seconds.values()) <= doc["wall_time"] + 1e-9
        assert doc["abort_reasons"] == dict.fromkeys(ABORT_REASONS, 0)  # a clean run
        # counted with the resource module, which Linux has
        assert isinstance(doc["minor_faults"], int) and doc["minor_faults"] >= 0
        assert doc["groups"] == 1  # 12 sessions of 48 pairs share one lockstep group
        assert b"minor_faults" not in timed.read_bytes() and b"groups" not in timed.read_bytes()

    def test_metrics_file_counts_abort_reasons(self, tmp_path):
        config = tmp_path / "lossy.ini"
        config.write_text(config_with(**TestAbortReasons.CONFIGS[0]))
        plain, timed, metrics = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "m.json"
        for out, extra in ((plain, ()), (timed, ("--metrics", str(metrics)))):
            proc = run_cli("simulate", "--config", str(config), "--out", str(out), *extra,
                           cwd=tmp_path)
            assert proc.returncode == 0, proc.stderr
        assert plain.read_bytes() == timed.read_bytes()
        results = json.loads(plain.read_text())["results"]
        reasons = json.loads(metrics.read_text())["abort_reasons"]
        assert tuple(reasons) == ABORT_REASONS
        assert sum(reasons.values()) == results["aborted"] > 0
        assert reasons["depleted_forward"] + reasons["depleted_return"] == results["depleted"]

    def test_attack_sweep_csv(self, tmp_path, config_path):
        out = tmp_path / "sweep.csv"
        proc = run_cli("attack-sweep", "--config", str(config_path), "--axis", "loss_prob",
                       "--values", "0,0.2", "--out", str(out), cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        table = list(csv.DictReader(io.StringIO(out.read_text())))
        assert len(table) == 2 and table[1]["axis"] == "loss_prob"
        assert int(table[1]["aborted"]) + int(table[1]["accepted"]) == 12

    def test_source_scan_csv(self, tmp_path):
        out = tmp_path / "scan.csv"
        proc = run_cli("source-scan", "--r", "0,1", "--phi", "0,3.14159", "--out", str(out),
                       cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        table = list(csv.DictReader(io.StringIO(out.read_text())))
        assert len(table) == 4

    @pytest.mark.parametrize(
        "argv, needle",
        [
            (("simulate", "--config", "absent.ini", "--out", "x.json"), "absent.ini"),
            (("attack-sweep", "--config", "run.ini", "--axis", "warp",
              "--values", "1", "--out", "x.csv"), "axis"),
            (("attack-sweep", "--config", "run.ini", "--axis", "loss_prob",
              "--values", "fast", "--out", "x.csv"), "fast"),
            (("source-scan", "--r", "", "--phi", "0", "--out", "x.csv"), "scan"),
            (("attack-sweep", "--config", "run.ini", "--axis", "n_pairs",
              "--values", "112.7", "--out", "x.csv"), "n_pairs"),
            (("attack-sweep", "--config", "run.ini", "--axis", "n_pairs",
              "--values", "1e400", "--out", "x.csv"), "n_pairs"),
            (("simulate", "--config", "run.ini", "--seed", "-1", "--out", "x.json"), "seed"),
            # config values are read literally, never interpolated
            (("simulate", "--config", "percent.ini", "--out", "x.json"),
             "config field [protocol] n_pairs: cannot parse '16%'"),
            (("simulate", "--config", "interpolated.ini", "--out", "x.json"),
             "config field [protocol] n_pairs: cannot parse '%(x)s'"),
        ],
    )
    def test_failures_exit_nonzero_with_diagnostic(self, tmp_path, config_path, argv, needle):
        (tmp_path / "percent.ini").write_text("[protocol]\nn_pairs = 16%\n")
        (tmp_path / "interpolated.ini").write_text("[protocol]\nn_pairs = %(x)s\n")
        proc = run_cli(*argv, cwd=config_path.parent)
        # exit 2 with one diagnostic line, not a traceback's exit 1
        assert proc.returncode == 2, proc.stderr
        [line] = proc.stderr.splitlines()
        assert line.startswith("error:") and needle in line

    def test_repeated_in_process_calls_share_one_parser_and_no_state(self, tmp_path, config_path):
        assert build_parser() is build_parser()
        first, second, metrics = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "m.json"
        assert main(["simulate", "--config", str(config_path), "--seed", "4", "--out", str(first),
                     "--transcripts", "--metrics", str(metrics)]) == 0
        written = set(tmp_path.iterdir())
        assert main(["simulate", "--config", str(config_path), "--seed", "4",
                     "--out", str(second)]) == 0
        # the plain call writes its stats file and nothing else
        assert set(tmp_path.iterdir()) - written == {second}
        alone = tmp_path / "alone.json"
        proc = run_cli("simulate", "--config", str(config_path), "--seed", "4", "--out", str(alone),
                       cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert second.read_bytes() == alone.read_bytes() == first.read_bytes()

    def test_bad_config_field_reported(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[protocol]\nn_pairs = plenty\n")
        proc = run_cli("simulate", "--config", str(bad), "--out", "x.json", cwd=tmp_path)
        assert proc.returncode == 2
        assert "[protocol] n_pairs" in proc.stderr


def readme_text() -> str:
    return (Path(__file__).resolve().parents[1] / "README.md").read_text()


class TestReadme:
    def test_config_block_parses_to_defaults(self):
        block = re.search(r"```ini\n(.*?)```", readme_text(), re.S).group(1)
        assert parse_run_config(block) == parse_run_config("")

    def test_sweep_axes_listed(self):
        paragraph = re.search(r"Sweep axes:(.*?)\n\n", readme_text(), re.S).group(1)
        assert tuple(re.findall(r"`(\w+)`", paragraph)) == SWEEP_AXES
