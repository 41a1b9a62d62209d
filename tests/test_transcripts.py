"""The JSONL text renderer equals ``json.dumps`` of the dict reference, byte for byte."""

from __future__ import annotations

import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperqsdc import harness, protocol
from hyperqsdc.harness import _run_group, parse_run_config
from hyperqsdc.protocol import (
    DEPLETED_FORWARD,
    DEPLETED_RETURN,
    Phase,
    transcript_lines,
)

from test_harness import config_with
from transcript_reference import parse_transcripts, render_events


def check_group(group, sessions: list) -> None:
    """Assert that the group's text is ``json.dumps`` of its reference events, member by member."""
    reference = render_events(group)
    lines = ["".join(json.dumps({"session": sessions[j], **event}) + "\n" for event in events)
             for j, events in enumerate(reference)]
    for j, expected in enumerate(lines):
        assert transcript_lines(group, [j], sessions) == expected, j
    kept = list(range(0, len(lines), 2))
    assert transcript_lines(group, kept, sessions) == "".join(lines[j] for j in kept)
    assert parse_transcripts(group) == reference


def rendered_group(overrides: dict):
    """Run one group of the config, checking its text after every phase; return the group."""
    rc = parse_run_config(config_with(**overrides))
    sessions = [3 * j + 1000 for j in range(rc.sessions)]  # any indices, not the member's
    groups = []

    def build(*args):
        groups.append(protocol.SessionGroup(*args))
        return groups[0]

    with mock.patch.object(harness, "SessionGroup", build):
        # mid-session, a member has rendered only the events of the phases it went through
        group = _run_group(rc, range(rc.sessions),
                           lambda _: check_group(groups[0], sessions))
    assert transcript_lines(group, [], sessions) == ""
    return group


KINDS = ["none", "intercept_resend", "trojan_multiphoton", "trojan_invisible", "trojan_delay"]


@st.composite
def configs(draw) -> dict:
    return dict(
        sessions=str(draw(st.integers(1, 12))),
        n_pairs=str(draw(st.integers(4, 40))),
        seed=str(draw(st.integers(0, 2**16))),
        r=repr(draw(st.sampled_from([1.0, 1.3, 0.9]) | st.floats(0.05, 3.0))),
        phi=repr(draw(st.sampled_from([0.0, 0.9, -1.1]) | st.floats(-3.2, 3.2))),
        sample_fraction_first=str(draw(st.sampled_from([0.05, 0.1, 0.3]))),
        sample_fraction_second=str(draw(st.sampled_from([0.05, 0.1, 0.3]))),
        error_threshold=str(draw(st.sampled_from([0.0, 0.05, 0.3, 1.0]))),
        loss_prob=str(draw(st.sampled_from([0.0, 0.1, 0.5, 0.8]))),
        pauli_p_pol=str(draw(st.sampled_from([0.0, 0.05, 0.3]))),
        pauli_p_spa=str(draw(st.sampled_from([0.0, 0.05, 0.3]))),
        basis_policy=draw(st.sampled_from(["uniform", "fixed_z", "fixed_x"])),
        passes=draw(st.sampled_from(["both", "forward", "return"])),
        filter_tolerance=str(draw(st.sampled_from([0.03, 0.05]))),
        pns_kind=draw(st.sampled_from(["ideal", "beamsplitter5050"])),
    )


# every adversary setting the renderer branches on, each with its own draws:
# intercept-resend over each DOF and pass choice, and each Trojan kind with
# the filter and the photon-number check on and off
ADVERSARIES = [
    dict(kind="none"),
    *(dict(kind="intercept_resend", dofs=dofs, passes=passes)
      for dofs in ("pol", "spa", "pol,spa") for passes in ("both", "forward", "return")),
    *(dict(kind=kind, filter_enabled=filtered, pns_enabled=pns)
      for kind in KINDS[2:] for filtered in ("true", "false") for pns in ("true", "false")),
]


# configs whose groups hold the edges: members depleted at either check,
# aborted at either check (the first leaves ``"message": null``), every
# Trojan kind screened by both defenses, and long float texts for the source
EDGES = {
    "depleted_at_both_checks": dict(sessions="40", n_pairs="8", seed="4", loss_prob="0.45",
                                    sample_fraction_first="0.1", sample_fraction_second="0.1"),
    "aborted_at_the_first_check": dict(sessions="12", n_pairs="24", seed="5",
                                       kind="intercept_resend", passes="forward",
                                       error_threshold="0.0"),
    "aborted_at_the_second_check": dict(sessions="12", n_pairs="24", seed="6",
                                        kind="intercept_resend", passes="return",
                                        error_threshold="0.0"),
    **{f"{kind}_screened": dict(sessions="6", n_pairs="16", seed="7", kind=kind, loss_prob="0.1",
                                filter_enabled="true", filter_tolerance="0.03",
                                pns_enabled="true", pns_kind="beamsplitter5050")
       for kind in KINDS[2:]},
    "long_source_floats": dict(sessions="3", n_pairs="12", seed="8", r="1.0000000000000002",
                               phi="-0.30000000000000004", pauli_p_pol="0.1"),
}


@pytest.mark.parametrize("name", EDGES)
def test_edge_configs_render_as_the_reference(name):
    group = rendered_group(EDGES[name])
    if name == "depleted_at_both_checks":
        assert {DEPLETED_FORWARD, DEPLETED_RETURN} <= set(group.depleted.tolist())
    elif name == "aborted_at_the_first_check":
        assert group.failed[:, 0].any() and group.in_phase(Phase.ACCEPTED).any()
    elif name == "aborted_at_the_second_check":
        assert group.failed[:, 1].any() and not group.failed[:, 0].any()
    elif name.endswith("_screened"):
        assert (group.screens[0] > 0).any()


@pytest.mark.parametrize("adversary", ADVERSARIES, ids=lambda a: "-".join(a.values()))
@settings(derandomize=True, max_examples=8, deadline=None)
@given(configs())
def test_text_equals_json_dumps_of_the_reference(adversary, overrides):
    rendered_group({**overrides, **adversary})


def test_position_texts_of_one_block_size_are_kept():
    # a process that renders sessions of two sizes keeps the texts of the last one only
    for n_pairs in ("24", "40"):
        rc = parse_run_config(config_with(sessions="2", n_pairs=n_pairs))
        transcript_lines(_run_group(rc, range(2)), range(2), range(2))
        assert protocol._numbers.cache_info().currsize == 1
