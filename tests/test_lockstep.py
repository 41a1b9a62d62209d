"""Lockstep session groups: output bytes pinned, and grouping never changes a session."""

from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hyperqsdc import harness
from hyperqsdc.adversary import BasisPolicy, EveKind
from hyperqsdc.harness import (
    GROUP_ROWS,
    RunStats,
    _pool,
    _run_group,
    parse_run_config,
    run,
    run_one_session,
    stats_text,
)
from hyperqsdc.hyperstate import Dof
from hyperqsdc.protocol import CHUNK_ROWS, BlockDepleted, ConfigError

from test_harness import config_with

# sha256 of the stats file and of the transcript JSONL that ``simulate
# --transcripts`` writes, computed with the per-session engine that ran one
# session at a time; the lockstep groups must reproduce them byte for byte
PINNED = {
    "clean": (
        dict(sessions="20", n_pairs="24", seed="1"),
        "1909667b284a895e27a3cffd6160b6cc2c6880a24e85b47ba54563f1d51e3af0",
        "03ac81132c5f5f78d89a08968dfe926ea586341debaa8ff12b30d0f5eddf5725",
    ),
    "loss_noise_intercept_both_defenses": (
        dict(sessions="12", n_pairs="40", seed="2", loss_prob="0.1", pauli_p_pol="0.05",
             pauli_p_spa="0.04", kind="intercept_resend", error_threshold="1.0",
             filter_enabled="true", pns_enabled="true"),
        "4599fcbaaeee6eb1769724190fb8c1e3be718f72e00d5b7eb4576adacbb7860f",
        "98915ea81b00571fbd0b3a8c13e3ba2d82d0096d470490d167bdc18f9396c34c",
    ),
    "trojan_invisible_beamsplitter_pns": (
        dict(sessions="10", n_pairs="32", seed="3", loss_prob="0.05", kind="trojan_invisible",
             pns_enabled="true", pns_kind="beamsplitter5050"),
        "2b8ac1d05bdd0232736d14ada5b91fcc9ff6b7aeaf84ff542880390ace867aa7",
        "dec3d594a51b5e226ab03337cc08c4309da31bc8c9cd9277fbc62ab7dc8d2aa1",
    ),
    "depleting": (
        dict(sessions="40", n_pairs="8", seed="4", loss_prob="0.45",
             sample_fraction_first="0.1", sample_fraction_second="0.1"),
        "43ecf8e6ad65af6118cd96a4eb73c637e443f8ded0770f69d481b9c181a6d22c",
        "65b942c6cd15e11a74dd7e10b4be76ab5fc03c16f236b1032fad9d380f789bda",
    ),
    "first_check_aborts_at_zero_threshold": (
        dict(sessions="20", n_pairs="24", seed="5", kind="intercept_resend", passes="forward",
             error_threshold="0.0", sample_fraction_first="0.1"),
        "61742b28242a0ff0dc91b43f8c82f9eb8f8aa11f24ba4f08ca7716fa0ff6f257",
        "26ceeaa5a3293f0ade96bf80fc51eed6774e66d3a7783e78e8f7178f7e380491",
    ),
    "session_over_chunk_rows": (
        dict(sessions="2", n_pairs="1500", seed="6", loss_prob="0.05", pauli_p_pol="0.02",
             pauli_p_spa="0.02", kind="intercept_resend", error_threshold="1.0"),
        "24ec103ac1062cb764efb725ab5b2c8c745387ff54b2c4eef86c398be6e8b1f0",
        "dd6cc44c9ef1a11315a4800b105843dd41de77a648a579d86da1e15ae8f206d4",
    ),
    "hundred_pair_sessions": (
        dict(sessions="25", n_pairs="100", seed="7", pauli_p_pol="0.01", loss_prob="0.02"),
        "b0d4cc73f25d9c118aea747656e18770fab2f63cb5e865cf63a56e5cc7a85b61",
        "175750409dab4006121758380f0a5f0c74c5585e359d5a86c94d76c5d4730431",
    ),
    "groups_not_dividing_group_rows": (
        dict(sessions="20", n_pairs="40", seed="8", loss_prob="0.05", pauli_p_spa="0.02",
             kind="intercept_resend", passes="return", error_threshold="0.5"),
        "34872650107fb464a107007763675687df11faeb348dfdec65bc0eaca7bca469",
        "a366bf6f9572f939b8a57412dc3501a33a661809e195690ca9a401a2f6043f1f",
    ),
    # Eve's basis change: X on every row, on no row, and on one axis only;
    # digests computed with the generic per-row 2x2 basis change
    "intercept_fixed_x_bases": (
        dict(sessions="12", n_pairs="40", seed="9", loss_prob="0.05", kind="intercept_resend",
             basis_policy="fixed_x", passes="both", error_threshold="1.0"),
        "24874c98dd1943d046c109a663bf271cec0468392149325945533a9749bb1629",
        "2cbe169820a284a917a941dfee81993b7166adeba9ac7017ef5907b9ff7b5efa",
    ),
    "intercept_fixed_z_bases": (
        dict(sessions="12", n_pairs="40", seed="10", pauli_p_pol="0.03", kind="intercept_resend",
             basis_policy="fixed_z", passes="both", error_threshold="1.0"),
        "7ebe09c6ddb3db1d26d0e7584ca53c01876fd0b264e2ca90678ec172fae8f45b",
        "4db44c8b8d3be403fb8bae06a5a1b05fa6585d912c271a13280c8f25b2b9dc53",
    ),
    "intercept_spa_over_chunk_rows": (
        dict(sessions="2", n_pairs="1500", seed="11", kind="intercept_resend", dofs="spa",
             passes="both", error_threshold="1.0"),
        "a9530a793ccc3726a5da7f5eb9445c2d649f3591427b5c6c642e6365245cf134",
        "ccefb251c7337d8d452d6401ba8fec23e2f430bb07b519a563edbfc0ac13981e",
    ),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def jsonl(transcripts: list) -> str:
    # the bytes write_transcripts puts in the file
    return "".join(json.dumps(event) + "\n" for event in transcripts)


@pytest.mark.parametrize("name", PINNED)
def test_output_bytes_are_pinned(name):
    overrides, stats_digest, transcript_digest = PINNED[name]
    rc = parse_run_config(config_with(**overrides))
    stats, transcripts = run(rc, collect_transcripts=True)
    assert sha256(stats_text(rc, rc.seed, stats)) == stats_digest
    assert sha256(jsonl(transcripts)) == transcript_digest
    bare, none = run(rc)
    assert none is None
    assert sha256(stats_text(rc, rc.seed, bare)) == stats_digest


def test_pinned_configs_cover_the_group_edges():
    rcs = {name: parse_run_config(config_with(**PINNED[name][0])) for name in PINNED}
    assert rcs["session_over_chunk_rows"].protocol.n_pairs > CHUNK_ROWS
    assert rcs["intercept_spa_over_chunk_rows"].protocol.n_pairs > CHUNK_ROWS
    assert rcs["intercept_spa_over_chunk_rows"].eve.dof_mask == frozenset({Dof.SPA})
    assert rcs["intercept_fixed_x_bases"].eve.basis_policy is BasisPolicy.FIXED_X
    assert rcs["intercept_fixed_z_bases"].eve.basis_policy is BasisPolicy.FIXED_Z
    groups = rcs["groups_not_dividing_group_rows"]
    per_group = GROUP_ROWS // groups.protocol.n_pairs
    assert per_group > 1 and GROUP_ROWS % groups.protocol.n_pairs
    assert groups.sessions % per_group
    stats, _ = run(groups)
    assert 0 < stats.accepted < stats.sessions
    stats, _ = run(rcs["depleting"])
    assert 0 < stats.depleted < stats.sessions
    stats, _ = run(rcs["first_check_aborts_at_zero_threshold"])
    assert 0 < stats.accepted < stats.sessions


def test_depleted_session_raises_alone_and_leaves_no_trace_in_its_group():
    rc = parse_run_config(config_with(**PINNED["depleting"][0]))
    stats, transcripts = run(rc, collect_transcripts=True)
    present = {event["session"] for event in transcripts}
    depleted = [k for k in range(rc.sessions) if k not in present]
    assert len(depleted) == stats.depleted
    for k in depleted:
        with pytest.raises(BlockDepleted):
            run_one_session(rc, rc.seed, k)


@pytest.mark.parametrize("group_rows", [16, 64, 4096])
@pytest.mark.parametrize("name", ["depleting", "loss_noise_intercept_both_defenses",
                                  "groups_not_dividing_group_rows",
                                  "first_check_aborts_at_zero_threshold"])
def test_group_size_changes_no_byte(monkeypatch, name, group_rows):
    # between them, members of one group end depleted at either check,
    # aborted at either check, or accepted
    rc = parse_run_config(config_with(**PINNED[name][0]))
    stats, transcripts = run(rc, collect_transcripts=True)
    monkeypatch.setattr(harness, "GROUP_ROWS", group_rows)
    regrouped, regrouped_transcripts = run(rc, collect_transcripts=True)
    assert stats_text(rc, rc.seed, regrouped) == stats_text(rc, rc.seed, stats)
    assert regrouped_transcripts == transcripts


def pooled_alone(rc, seed: int):
    """What ``run`` gives when every session runs as a group of one."""
    stats = RunStats(adversary_present=rc.eve.kind is not EveKind.NONE)
    transcripts: list = []
    for k in range(rc.sessions):
        _pool(stats, transcripts, rc, seed, [k], _run_group(rc, seed, [k]))
    return stats, transcripts


small_configs = st.fixed_dictionaries({
    "sessions": st.integers(1, 12).map(str),
    "n_pairs": st.sampled_from(["4", "6", "16", "40", "150", "700"]),
    "sample_fraction_first": st.sampled_from(["0.05", "0.2", "0.4"]),
    "sample_fraction_second": st.sampled_from(["0.05", "0.2"]),
    "error_threshold": st.sampled_from(["0.0", "0.1", "1.0"]),
    "loss_prob": st.sampled_from(["0.0", "0.1", "0.6"]),
    "pauli_p_pol": st.sampled_from(["0.0", "0.05"]),
    "pauli_p_spa": st.sampled_from(["0.0", "0.1"]),
    "kind": st.sampled_from(["none", "intercept_resend", "trojan_multiphoton",
                             "trojan_invisible", "trojan_delay"]),
    "dofs": st.sampled_from(["pol,spa", "pol", "spa"]),
    "basis_policy": st.sampled_from(["uniform", "fixed_z", "fixed_x"]),
    "passes": st.sampled_from(["both", "forward", "return"]),
    "filter_enabled": st.sampled_from(["true", "false"]),
    "pns_enabled": st.sampled_from(["true", "false"]),
    "pns_kind": st.sampled_from(["ideal", "beamsplitter5050"]),
})


@given(small_configs, st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_run_matches_sessions_run_alone(overrides, seed):
    try:
        rc = parse_run_config(config_with(**overrides))
    except ConfigError:
        assume(False)  # sample fractions that leave no message pairs
    stats, transcripts = run(rc, seed, collect_transcripts=True)
    alone, alone_transcripts = pooled_alone(rc, seed)
    assert stats_text(rc, seed, stats) == stats_text(rc, seed, alone)
    assert transcripts == alone_transcripts
