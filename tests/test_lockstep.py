"""Lockstep session groups: output bytes pinned, and grouping never changes a session."""

from __future__ import annotations

import hashlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from numpy._core import _multiarray_umath
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hyperqsdc import adversary, harness, hyperstate, protocol
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
from hyperqsdc.protocol import (
    CHUNK_ROWS,
    DEPLETED_FORWARD,
    DEPLETED_RETURN,
    BlockDepleted,
    ConfigError,
    Phase,
    SessionGroup,
)

import oracles
from test_harness import config_with, package_env
from transcript_reference import parse_transcripts

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
    # screening verdicts in the transcripts: every forward probe filtered,
    # every forward probe alarmed; digests computed with the transcripts
    # that the phase functions logged as they ran
    "trojan_invisible_filtered": (
        dict(sessions="10", n_pairs="32", seed="13", kind="trojan_invisible",
             filter_enabled="true", pns_enabled="true", pns_kind="beamsplitter5050"),
        "ef4695a6a6a0f03ade53197f257ef70df180de0fb72eca511b2e3ebd6035e434",
        "c783aace3d9775df1b3f282a9342f8b38652093cd59073695b681a4fec7a7232",
    ),
    "trojan_delay_both_defenses": (
        dict(sessions="10", n_pairs="32", seed="14", kind="trojan_delay",
             filter_enabled="true", pns_enabled="true"),
        "c25dbbbccddb5a690a5acc4d7a469aba244a7b1a41a22d219f61548264ab134c",
        "5cae4509364328aa013aeca36778bc39e0e51116bf7d996ec695a4a0149a0200",
    ),
    # a non-ideal source, whose amplitudes are no exact dyadic values, through
    # loss, Pauli noise on both DOFs and intercept-resend on both passes;
    # digests computed with the engine that kept one (16,) row per pair
    "nonideal_source_noise_intercept_both": (
        dict(sessions="12", n_pairs="40", seed="15", r="0.7", phi="0.4", loss_prob="0.08",
             pauli_p_pol="0.04", pauli_p_spa="0.05", kind="intercept_resend", passes="both",
             error_threshold="1.0"),
        "2b3137d8ca4b0068e6baf814e3b2553e0dc01ec1e4750013f726a415ba0942f8",
        "5c3b0c5d834701b6cf05c387c6087fa61e392f0b4c9ecd11f8464b3db3c93d5e",
    ),
    "nonideal_session_over_chunk_rows": (
        dict(sessions="1", n_pairs="1500", seed="16", r="1.3", phi="-1.1", loss_prob="0.05",
             pauli_p_pol="0.03", pauli_p_spa="0.02", kind="intercept_resend", passes="both",
             error_threshold="1.0"),
        "bb333393bf56faa72be8c538b753ed0f9f557143990b7aff1a8f4a67d1319868",
        "0fe89fb6d8a69885cdc5bb5c43c011ef67d0d30bd0447af65fb9ca4b19d39bc1",
    ),
    # one session whose Bell readout read 1,743 table rows, more than
    # CHUNK_ROWS in one kernel call, before the table merged value-equal rows
    # (620 after); digests computed with the engine that split each kernel
    # call into chunks of CHUNK_ROWS rows
    "nonideal_kernel_call_over_chunk_rows": (
        dict(sessions="1", n_pairs="3000", seed="17", r="0.7", phi="0.4", loss_prob="0.05",
             pauli_p_pol="0.05", pauli_p_spa="0.05", kind="intercept_resend", passes="both",
             error_threshold="1.0"),
        "9906b0393f4769a621c5e34ee94f7bcc02d9aa843343e52bd2bb6cc2600592fd",
        "5bdbcf4dda5c2116496670f6792b0735f0e117d2d0b370fe09cfabefd182dcd0",
    ),
    # Eve's basis change on axis 0 alone, X or Z per pair, on a non-ideal
    # source under Pauli noise on both DOFs; digests computed with the
    # engine that turned X rows by a hand-written Hadamard butterfly
    "intercept_pol_nonideal_noise": (
        dict(sessions="12", n_pairs="40", seed="18", r="1.3", phi="0.9", pauli_p_pol="0.04",
             pauli_p_spa="0.03", kind="intercept_resend", dofs="pol", passes="both",
             error_threshold="1.0"),
        "9382d2863f3749c5d217fad68d4ca4f3a8f744ae162ded113f550164938f6b09",
        "b40208993722c23712cfb50cc668f337806d6255a8b6ceb945b1ca2c23976ee0",
    ),
    # Trojan probes drawn across several CHUNK_ROWS chunks between the loss
    # and Pauli draws, screened by the 50/50 splitter; then probes under a
    # filter window narrower than the default; digests computed with the
    # engine that crafted and screened one probe at a time
    "trojan_invisible_noise_over_chunk_rows": (
        dict(sessions="2", n_pairs="1500", seed="19", loss_prob="0.05", pauli_p_pol="0.03",
             pauli_p_spa="0.02", kind="trojan_invisible", passes="both",
             pns_enabled="true", pns_kind="beamsplitter5050"),
        "9c4cd1ca3a6aa169d8fdb474c8a46ec6652de93444118856da146f43cd1c86fb",
        "b1874e7cf8ed4ed07dd2b03277a159e0fe7e5f6d5f151a49cc6bc42c2475bb50",
    ),
    "trojan_multiphoton_tuned_filter": (
        dict(sessions="3", n_pairs="1100", seed="20", loss_prob="0.04", pauli_p_spa="0.03",
             kind="trojan_multiphoton", passes="both", filter_enabled="true",
             filter_tolerance="0.03", pns_enabled="true", pns_kind="beamsplitter5050"),
        "6eaf3e21a18a614e472853fe9d72de908c363c147e67f7c9d3a1f4e91b125f41",
        "b43f00687f473f1576f327e1fc207e483ca6070dbdc8ca109d75062a06854e2f",
    ),
    # one session whose collapse, after Eve's return-pass reading, reads
    # 1,362 value-distinct rows in one kernel call: more than CHUNK_ROWS;
    # digests computed with the engine whose table kept value-equal rows apart
    "nonideal_merged_call_over_chunk_rows": (
        dict(sessions="1", n_pairs="8000", seed="23", r="0.6", phi="1.1", loss_prob="0.05",
             pauli_p_pol="0.1", pauli_p_spa="0.1", kind="intercept_resend", passes="both",
             error_threshold="1.0"),
        "8238c400dbb49abb1cd21b13e09e4ae111d3ff500b39e341b8b0e09b0fd39ef7",
        "d0cfe49ebb9dd09f1a6554f4233a335440470b215648492b72f0bc7bd15b4d30",
    ),
    # master seeds of three and four 32-bit words: with the session index
    # (and Eve's coin tag) they fill and overflow SeedSequence's 4-word
    # pool; digests computed with one default_rng per session
    "intercept_both_seed_over_64_bits": (
        dict(sessions="12", n_pairs="40", seed=str(2**64 + 21), loss_prob="0.05",
             pauli_p_pol="0.02", kind="intercept_resend", passes="both", error_threshold="1.0"),
        "68d7a9dfee8f0c896fb752c0e2d770fb672d0ad891264766991847cfcabd9b23",
        "48f6c30eaec97d9f3924dc6cf0bb69a3960a1413feb40dee4fdee4a7ad20d00a",
    ),
    "noise_intercept_seed_over_96_bits": (
        dict(sessions="30", n_pairs="24", seed=str(2**96 + 22), loss_prob="0.03",
             pauli_p_pol="0.03", pauli_p_spa="0.02", kind="intercept_resend", passes="return",
             error_threshold="0.3"),
        "ae150860fa069d636bd1cdd2022412d1f890776d74302f47c7080c4aaf709084",
        "68b479141a083331f96421704258cf922478e3b50b2cf5383a3bc394917d21d8",
    ),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_jsonl(rc, seed=None) -> tuple:
    """``run`` with its transcripts streamed to text: (stats, the JSONL text)."""
    out = io.StringIO()
    stats, _ = run(rc, seed, out)
    return stats, out.getvalue()


def session_lines(text: str, k: int) -> list:
    """The events of session ``k`` in a run's JSONL, without the session key."""
    events = [json.loads(line) for line in text.splitlines()]
    return [{key: value for key, value in event.items() if key != "session"}
            for event in events if event["session"] == k]


# Groups of at most this many rows split the pinned configs "clean" (480
# rows) and "groups_not_dividing_group_rows" (800 rows) into several groups,
# the last one short; at GROUP_ROWS each of them is a single group.
SMALL_GROUP_ROWS = 256


@pytest.mark.parametrize("name", PINNED)
def test_output_bytes_are_pinned(monkeypatch, name):
    overrides, stats_digest, transcript_digest = PINNED[name]
    rc = parse_run_config(config_with(**overrides))
    for group_rows in (GROUP_ROWS, SMALL_GROUP_ROWS):
        monkeypatch.setattr(harness, "GROUP_ROWS", group_rows)
        stats, text = run_jsonl(rc)
        assert sha256(stats_text(rc, rc.seed, stats)) == stats_digest
        assert sha256(text) == transcript_digest
        bare, none = run(rc)
        assert none is None
        assert sha256(stats_text(rc, rc.seed, bare)) == stats_digest


# numpy's SIMD dispatch targets; a child process that turns them all off
# runs numpy's baseline code paths, and its bytes must be the pinned ones
CPU_DISPATCH = list(getattr(_multiarray_umath, "__cpu_dispatch__", []))
NO_SIMD_CHILD = """
import hashlib, io, json, sys
from numpy._core._multiarray_umath import __cpu_features__
from hyperqsdc.harness import parse_run_config, run, stats_text
configs, disabled = json.load(sys.stdin)
assert not any(__cpu_features__[name] for name in disabled), "a dispatch target stayed on"
digests = []
for text in configs:
    rc = parse_run_config(text)
    out = io.StringIO()
    stats, _ = run(rc, None, out)
    digests.append([hashlib.sha256(part.encode("utf-8")).hexdigest()
                    for part in (stats_text(rc, rc.seed, stats), out.getvalue())])
print(json.dumps(digests))
"""


@pytest.mark.skipif(not CPU_DISPATCH, reason="numpy reports no SIMD dispatch target to turn off")
def test_pinned_bytes_hold_without_simd_dispatch():
    # defenses, Trojan probes across chunks, and non-dyadic amplitudes in
    # kernel calls over CHUNK_ROWS rows, where a vectorised loop's rounding would show
    names = ["loss_noise_intercept_both_defenses", "trojan_invisible_noise_over_chunk_rows",
             "nonideal_kernel_call_over_chunk_rows", "nonideal_merged_call_over_chunk_rows"]
    request = [[config_with(**PINNED[name][0]) for name in names], CPU_DISPATCH]
    child = subprocess.run([sys.executable, "-c", NO_SIMD_CHILD], input=json.dumps(request),
                           capture_output=True, text=True, timeout=120, check=True,
                           env={**package_env(), "NPY_DISABLE_CPU_FEATURES": " ".join(CPU_DISPATCH)})
    assert json.loads(child.stdout) == [list(PINNED[name][1:]) for name in names]


def test_pinned_configs_cover_the_group_edges():
    rcs = {name: parse_run_config(config_with(**PINNED[name][0])) for name in PINNED}
    assert rcs["session_over_chunk_rows"].protocol.n_pairs > CHUNK_ROWS
    assert rcs["intercept_spa_over_chunk_rows"].protocol.n_pairs > CHUNK_ROWS
    assert rcs["intercept_spa_over_chunk_rows"].eve.dof_mask == frozenset({Dof.SPA})
    assert rcs["nonideal_session_over_chunk_rows"].protocol.n_pairs > CHUNK_ROWS
    assert rcs["trojan_invisible_noise_over_chunk_rows"].protocol.n_pairs > CHUNK_ROWS
    assert rcs["trojan_multiphoton_tuned_filter"].protocol.n_pairs > CHUNK_ROWS
    assert rcs["trojan_multiphoton_tuned_filter"].defense.filter_tolerance != 0.05
    for name in ("nonideal_source_noise_intercept_both", "nonideal_session_over_chunk_rows"):
        assert rcs[name].source.r != 1.0 and rcs[name].source.phi != 0.0
    assert rcs["intercept_fixed_x_bases"].eve.basis_policy is BasisPolicy.FIXED_X
    assert rcs["intercept_fixed_z_bases"].eve.basis_policy is BasisPolicy.FIXED_Z
    over_64 = rcs["intercept_both_seed_over_64_bits"]
    assert over_64.seed >= 2**64 and over_64.eve.kind is EveKind.INTERCEPT_RESEND
    assert over_64.eve_passes == "both"
    assert rcs["noise_intercept_seed_over_96_bits"].seed >= 2**96
    groups = rcs["groups_not_dividing_group_rows"]
    for group_rows in (GROUP_ROWS, SMALL_GROUP_ROWS):
        assert group_rows // groups.protocol.n_pairs > 1 and group_rows % groups.protocol.n_pairs
    # at SMALL_GROUP_ROWS, several groups and a short last one
    per_group = SMALL_GROUP_ROWS // groups.protocol.n_pairs
    assert groups.sessions > per_group and groups.sessions % per_group
    clean = rcs["clean"]
    assert clean.sessions * clean.protocol.n_pairs > SMALL_GROUP_ROWS
    stats, _ = run(groups)
    assert 0 < stats.accepted < stats.sessions
    stats, _ = run(rcs["depleting"])
    assert 0 < stats.depleted < stats.sessions
    stats, _ = run(rcs["first_check_aborts_at_zero_threshold"])
    assert 0 < stats.accepted < stats.sessions
    stats, _ = run(rcs["trojan_invisible_filtered"])
    assert stats.trojan_filtered == 320  # every forward probe of 10 sessions of 32 pairs
    stats, _ = run(rcs["trojan_delay_both_defenses"])
    assert stats.pns_alarms == 320


def test_depleted_session_raises_alone_and_leaves_no_trace_in_its_group():
    rc = parse_run_config(config_with(**PINNED["depleting"][0]))
    stats, text = run_jsonl(rc)
    present = {json.loads(line)["session"] for line in text.splitlines()}
    depleted = [k for k in range(rc.sessions) if k not in present]
    assert len(depleted) == stats.depleted
    for k in depleted:
        with pytest.raises(BlockDepleted):
            run_one_session(rc, rc.seed, k)


# the hostile_channel benchmark scenario: loss, Pauli noise, two-pass
# intercept-resend and both defenses on 112-pair blocks
HOSTILE = dict(n_pairs="112", seed="3", loss_prob="0.1", pauli_p_pol="0.03",
               pauli_p_spa="0.03", kind="intercept_resend", error_threshold="1.0",
               filter_enabled="true", pns_enabled="true")


@pytest.mark.parametrize("overrides", [dict(HOSTILE, sessions="12"),
                                       PINNED["trojan_invisible_filtered"][0]])
def test_session_renders_alone_as_in_the_run(overrides):
    # session 5 sits in the middle of the run's first group (of 9 and of 10 members)
    rc = parse_run_config(config_with(**overrides))
    _, text = run_jsonl(rc)
    [alone] = parse_transcripts(run_one_session(rc, rc.seed, 5))
    assert alone == session_lines(text, 5)
    assert [e["event"] for e in alone] == ["prepare", "transit", "first_check", "encode",
                                           "transit", "second_check", "result"]


def test_depleted_member_renders_up_to_the_check_it_missed():
    # a member depleted at the first check renders prepare and the forward
    # transit, one depleted at the second check stops after the return transit;
    # the run writes neither
    rc = parse_run_config(config_with(**PINNED["depleting"][0]))
    group = _run_group(rc, rc.seed, range(rc.sessions))
    _, text = run_jsonl(rc)
    rendered = {DEPLETED_FORWARD: ["prepare", "transit"],
                DEPLETED_RETURN: ["prepare", "transit", "first_check", "encode", "transit"]}
    reasons = group.depleted.tolist()
    assert {DEPLETED_FORWARD, DEPLETED_RETURN} <= set(reasons)
    for k, (events, reason) in enumerate(zip(parse_transcripts(group), reasons)):
        if reason:
            assert [e["event"] for e in events] == rendered[reason]
            assert session_lines(text, k) == []
        else:
            assert events == session_lines(text, k)


def test_streamed_run_memory_does_not_grow_with_sessions():
    peaks = []
    with open(os.devnull, "w", encoding="utf-8") as sink:
        for sessions in (300, 3000):
            rc = parse_run_config(config_with(sessions=str(sessions), **HOSTILE))
            tracemalloc.start()
            try:
                run(rc, transcripts=sink)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 1_000_000, peaks  # bytes


# tracemalloc peak of one ideal_sessions group, 100 clean sessions of 112 pairs
# (11,200 rows): 948 KiB with int8 message bits and op codes, 1,670 KiB with
# int64 ones.  An int64 array of one entry per pair adds 77 KiB over int8.
IDEAL_GROUP_PEAK = 1000 * 1024  # bytes


def test_ideal_sessions_group_peak_memory():
    rc = parse_run_config(config_with(sessions="100", n_pairs="112"))
    assert rc.sessions * rc.protocol.n_pairs <= GROUP_ROWS  # run() makes it one group
    _run_group(rc, rc.seed, range(2))  # first-call allocations stay out of the peak
    tracemalloc.start()
    try:
        _run_group(rc, rc.seed, range(rc.sessions))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < IDEAL_GROUP_PEAK, f"{peak / 1024:.0f} KiB"


# A fresh interpreter that runs the config on stdin with its transcripts
# streamed to os.devnull, then prints its own peak resident set (VmHWM, kB).
PEAK_RSS_CHILD = """
import os, sys
from hyperqsdc.harness import parse_run_config, run
rc = parse_run_config(sys.stdin.read())
with open(os.devnull, "w", encoding="utf-8") as sink:
    run(rc, transcripts=sink)
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
def test_streamed_run_peak_rss_does_not_grow_with_sessions():
    # untraced, so it sees what a user's process holds: the 3,000-session run
    # writes about 15 MB of transcripts, and holding them costs some 36 MB
    peaks = []
    for sessions in (300, 3000):  # one child at a time
        config = config_with(sessions=str(sessions), **HOSTILE)
        child = subprocess.run([sys.executable, "-c", PEAK_RSS_CHILD], input=config,
                               capture_output=True, text=True, env=package_env(), timeout=300,
                               check=True)
        peaks.append(int(child.stdout))
    assert peaks[1] - peaks[0] < 4096, peaks  # kB


@pytest.mark.parametrize("group_rows", [16, 64, 256, 4096])
@pytest.mark.parametrize("name", ["depleting", "loss_noise_intercept_both_defenses",
                                  "groups_not_dividing_group_rows",
                                  "first_check_aborts_at_zero_threshold"])
def test_group_size_changes_no_byte(monkeypatch, name, group_rows):
    # between them, members of one group end depleted at either check,
    # aborted at either check, or accepted
    rc = parse_run_config(config_with(**PINNED[name][0]))
    stats, text = run_jsonl(rc)
    monkeypatch.setattr(harness, "GROUP_ROWS", group_rows)
    regrouped, regrouped_text = run_jsonl(rc)
    assert stats_text(rc, rc.seed, regrouped) == stats_text(rc, rc.seed, stats)
    assert regrouped_text == text


@pytest.mark.parametrize("group_rows, sessions, n_pairs", [
    (GROUP_ROWS, 100, 112),  # the shape of ``ideal_sessions``
    (1024, 100, 112),  # 9 sessions a group, the last one short
    (GROUP_ROWS, 3, GROUP_ROWS + 1),  # a session over GROUP_ROWS is a group of one
])
def test_run_counts_its_groups(monkeypatch, group_rows, sessions, n_pairs):
    monkeypatch.setattr(harness, "GROUP_ROWS", group_rows)
    rc = parse_run_config(config_with(sessions=str(sessions), n_pairs=str(n_pairs)))
    stats, _ = run(rc)
    groups = math.ceil(sessions / max(1, group_rows // n_pairs))
    assert stats.groups == groups
    assert json.loads(harness.metrics_text(stats))["groups"] == groups


def test_run_holds_one_group_at_a_time(monkeypatch):
    # a finished group is released before the next one is built
    live = weakref.WeakSet()
    built = []
    init = SessionGroup.__init__

    def tracked(self, *args, **kwargs):
        assert not live, "the previous group is still alive"
        init(self, *args, **kwargs)
        live.add(self)
        built.append(1)

    monkeypatch.setattr(SessionGroup, "__init__", tracked)
    rc = parse_run_config(config_with(**PINNED["loss_noise_intercept_both_defenses"][0]))
    monkeypatch.setattr(harness, "GROUP_ROWS", 2 * rc.protocol.n_pairs)
    run(rc, transcripts=io.StringIO())
    assert len(built) == rc.sessions // 2


def pooled_alone(rc, seed: int):
    """What ``run`` gives when every session runs as a group of one."""
    stats = RunStats()
    out = io.StringIO()
    for k in range(rc.sessions):
        _pool(stats, out, rc, seed, [k], _run_group(rc, seed, [k]))
    return stats, out.getvalue()


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
    stats, text = run_jsonl(rc, seed)
    alone, alone_text = pooled_alone(rc, seed)
    assert stats_text(rc, seed, stats) == stats_text(rc, seed, alone)
    assert text == alone_text


# The row-wise kernels, under every name the package calls them by, and the
# ones among them that do the work of a measurement: its Born side and its
# collapse.
KERNELS = ("_read", "_project", "_bell_cdf", "encode", "pauli")
MEASUREMENT = ("_read", "_project")


def kernel_rows(monkeypatch, arguments=None) -> list:
    """Count the rows handed to each kernel call: a list of (kernel name, rows) that fills as
    the package runs.  A name of ``KERNELS`` that no module defines fails.  Each call's
    arguments as handed, by name, go to the list ``arguments`` when one is given."""
    calls = []
    modules = (hyperstate, adversary, protocol)
    assert [name for name in KERNELS if not any(hasattr(m, name) for m in modules)] == []
    for module in modules:
        for name in KERNELS:
            kernel = getattr(module, name, None)
            if kernel is None:
                continue

            def counted(*args, _kernel=kernel, _name=name, **kwargs):
                # the rows read: every row of the block, the first argument
                bound = inspect.signature(_kernel).bind(*args, **kwargs).arguments
                calls.append((_name, len(next(iter(bound.values())))))
                if arguments is not None:  # copies, as handed, for a later call to read
                    arguments.append({key: value.copy() if isinstance(value, np.ndarray) else value
                                      for key, value in bound.items()})
                return _kernel(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    return calls


def test_clean_group_hands_each_kernel_its_distinct_states_only(monkeypatch):
    # an ideal_sessions group: every pair starts in one state and takes one of
    # 16 ops, so no kernel call needs more than 16 rows
    rc = parse_run_config(config_with(sessions="9", n_pairs="112", sample_fraction_first="0.05",
                                      sample_fraction_second="0.05"))
    calls = kernel_rows(monkeypatch)
    group = _run_group(rc, rc.seed, range(rc.sessions))
    assert group.in_phase(Phase.ACCEPTED).all()
    assert max(rows for _, rows in calls) <= 16, calls
    assert {name for name, _ in calls} >= {"_read", "encode", "_bell_cdf"}


def test_big_check_measures_under_a_hundred_rows(monkeypatch):
    # a big_block_check session: 20,000 pairs through intercept-resend and a
    # check of nearly all of them, from at most 16 distinct states
    rc = parse_run_config(config_with(
        sessions="1", n_pairs="20000", sample_fraction_first="0.9996",
        sample_fraction_second="0.0001", kind="intercept_resend", passes="forward",
    ))
    calls = kernel_rows(monkeypatch)
    group = _run_group(rc, rc.seed, [0])
    assert group.counts[0, 0, 0] > 19_000  # pairs checked
    assert 0 < sum(rows for name, rows in calls if name in MEASUREMENT) < 100, calls


def test_a_pinned_session_hands_one_kernel_call_over_chunk_rows(monkeypatch):
    # the pinned digests cover a kernel call on more distinct rows than the
    # chunk in which a session draws its transits
    rc = parse_run_config(config_with(**PINNED["nonideal_merged_call_over_chunk_rows"][0]))
    calls = kernel_rows(monkeypatch)
    _run_group(rc, rc.seed, [0])
    assert max(rows for _, rows in calls) > CHUNK_ROWS, calls


# ---------------------------------------------------------------------------
# the state table holds each value once
# ---------------------------------------------------------------------------

V = np.array([0.5, 0.0, -0.5j, 0.0] * 4)  # exact zeros, whose sign the kernels may flip
W = np.roll(V, 1)
NAN, INF = V.copy(), V.copy()
NAN[3], INF[[0, 5]] = np.nan, (np.inf, -np.inf)

# rows handed to ``_update``: equal in value or not, with each pair's row
UPDATES = {
    "signed_zeros": ([V, -V, W, V * (1 + 0j), np.conj(V), V.conj().conj()], [0, 1, 2, 3, 4, 5, 3]),
    "nan": ([NAN, NAN, V, NAN.copy(), V], [0, 1, 2, 3, 4, 0]),
    "inf": ([INF, V, INF.copy(), -INF, V], [0, 1, 2, 3, 4, 2]),
    "all_distinct": ([V, W, -V, -W], [3, 2, 1, 0]),
}


def bare_group(n_pairs: int) -> SessionGroup:
    """A group of one member and ``n_pairs`` pairs, to hand states to ``_update`` directly."""
    return SessionGroup(n_pairs, SimpleNamespace(rngs=[None]))


def signed_zero_copy(rows: np.ndarray) -> np.ndarray:
    """``rows`` with every +0.0 part turned into -0.0: equal in value, not in bytes."""
    parts = rows.copy().view(float)
    parts[parts == 0.0] = -0.0
    return parts.view(complex)


@pytest.mark.parametrize("one_key", [False, True], ids=["keyed", "one_key_group"])
@pytest.mark.parametrize("name", UPDATES)
def test_update_keeps_one_row_per_value(monkeypatch, name, one_key):
    rows, index = UPDATES[name]
    rows, index = np.array(rows), np.array(index)
    rows[1::3] = signed_zero_copy(rows[1::3])
    if one_key:  # every row in one key group: only the comparison tells rows apart
        monkeypatch.setattr(protocol, "_KEY_WEIGHTS", np.zeros(32))
    group = bare_group(len(index))
    group.table[0] = V
    group._update(np.arange(len(index)), rows, index)
    # every pair keeps the value of its state ...
    states = group.table[group.index]
    assert np.array_equal(states, rows[index], equal_nan=True)
    assert (np.isnan(states) == np.isnan(rows[index])).all()
    # ... no two rows of the table are equal in value ...
    table = group.table
    equal = (table[:, None] == table[None]).all(axis=2)
    assert (equal == np.diag(~np.isnan(table).any(axis=1))).all()
    # ... and pairs share a row only where their rows were equal in value
    same_row = group.index[:, None] == group.index[None]
    assert (same_row == (rows[index][:, None] == rows[index][None]).all(axis=2)
            | (index[:, None] == index[None])).all()


def test_update_merges_a_new_row_into_an_equal_old_one():
    group = bare_group(4)
    group.table[0] = V
    group._update(np.array([1, 2]), np.array([signed_zero_copy(V[None])[0], W]), np.array([0, 1]))
    assert len(group.table) == 2
    assert len(set(group.index[[0, 1, 3]].tolist())) == 1 and group.index[2] != group.index[0]
    assert np.array_equal(group.table[group.index], np.array([V, V, W, V]))


def test_update_merges_equal_rows_wherever_they_fall():
    # a hostile_channel group's states, then a copy of each with its zeros
    # negated, shifted by 0 to 7 rows: each copy gets its key wherever it falls
    rc = parse_run_config(config_with(**dict(HOSTILE, sessions="30")))
    table = _run_group(rc, rc.seed, range(rc.sessions)).table
    rng = np.random.default_rng(27)
    for shift in range(8):
        copies = np.concatenate([table[rng.permutation(len(table))],
                                 signed_zero_copy(table[shift:])])
        group = bare_group(len(copies))
        group._update(np.arange(len(copies)), copies, np.arange(len(copies)))
        assert len(group.table) == len(table)
        assert np.array_equal(group.table[group.index], copies)


# Each kernel's discrete choice for every row it is handed, from the call's
# arguments by name: a measurement's X mask (and the outcome it collapses
# onto), an op code; None where the state alone decides.
CHOICES = {
    "_read": lambda a: a["x"],
    "_project": lambda a: np.column_stack([a["outcomes"], a["x"]]),
    "_bell_cdf": lambda a: None,
    "encode": lambda a: a["codes"],
    "pauli": lambda a: a["codes"],
}


def value_distinct(states: np.ndarray, choices) -> int:
    """How many distinct (state, choice) the rows hold, states compared by value: adding 0.0
    turns each -0.0 into +0.0, and no row here holds a NaN."""
    assert not np.isnan(states).any()
    keys = [row.tobytes() for row in states + 0.0]
    if choices is not None:
        keys = [key + np.asarray(choice, dtype=np.int64).tobytes()
                for key, choice in zip(keys, choices)]
    return len(set(keys))


# rows of the Bell readout of the group below while its table kept
# value-equal rows apart
HOSTILE_BELL_ROWS_UNMERGED = 1663


def test_hostile_group_hands_each_kernel_value_distinct_states_only(monkeypatch):
    # a hostile_channel group: Eve reads and resends both DOFs on both passes
    # and the noise hits between, so distinct combos of table rows and choices
    # often lead to states of equal value, which the table keeps once
    rc = parse_run_config(config_with(**dict(HOSTILE, sessions="30")))
    arguments = []
    calls = kernel_rows(monkeypatch, arguments)
    _run_group(rc, rc.seed, range(rc.sessions))
    assert {name for name, _ in calls} == set(KERNELS)
    for (name, rows), bound in zip(calls, arguments):
        states = next(iter(bound.values()))
        assert rows <= value_distinct(states, CHOICES[name](bound)), name
    [bell] = [rows for name, rows in calls if name == "_bell_cdf"]
    assert bell <= 0.4 * HOSTILE_BELL_ROWS_UNMERGED


def test_hostile_return_pass_collapse_equals_the_reference_projector(monkeypatch):
    # Eve's joint read of both DOFs on the return pass of a hostile_channel
    # group: every combo's ket product equals the zeroed, divided and
    # turned-back row of ``oracles.project_rows`` by value
    project = hyperstate._project
    rc = parse_run_config(config_with(**dict(HOSTILE, sessions="30")))
    arguments = []
    calls = kernel_rows(monkeypatch, arguments)
    _run_group(rc, rc.seed, range(rc.sessions))
    forward, back = [bound for (name, _), bound in zip(calls, arguments) if name == "_project"]
    assert back["axes"] == (0, 2) and back["x"].any() and not back["x"].all()
    assert (project(**back) == oracles.project_rows(**back)).all()


def test_noisy_transits_hand_pauli_their_distinct_codes_only(monkeypatch):
    # an ideal source with Pauli noise on both DOFs: the forward transit maps
    # the one source state by at most 15 distinct noise codes, and the return
    # transit maps each distinct encoded state by at most 15 more
    rc = parse_run_config(config_with(sessions="9", n_pairs="112", pauli_p_pol="0.1",
                                      pauli_p_spa="0.1", error_threshold="1.0"))
    calls = kernel_rows(monkeypatch)
    _run_group(rc, rc.seed, range(rc.sessions))
    forward, back = [rows for name, rows in calls if name == "pauli"]
    [encoded] = [rows for name, rows in calls if name == "encode"]
    assert 0 < forward <= 15
    assert 0 < back <= 15 * encoded


def test_kernel_rows_fails_on_a_name_no_module_defines(monkeypatch):
    monkeypatch.setitem(globals(), "KERNELS", KERNELS + ("no_such_kernel",))
    with pytest.raises(AssertionError):
        kernel_rows(monkeypatch)
