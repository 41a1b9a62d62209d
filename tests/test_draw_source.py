"""Every random draw of a run comes from one object, ``draws.DrawSource``.

The rule that session k draws only from its own generators lives in that
class alone.  A guard parses the package and fails on a generator draw
anywhere else, a raw 64-bit word or a look at a generator's state
included, and another on a ``numpy.random`` constructor outside ``draws``.

The source takes raw PCG64 words and shapes them into numpy's draws itself,
with four primitives: ``uniforms``, ``integers`` (Lemire's bounded integers
from 32-bit half-words, the left-over half buffered as the generator would
buffer it), ``sample`` (the check samples of ``choice``) and ``blocks``.
Each phase writes its own recipe as calls of these: the transit in
``protocol.transit_draws``, the first check, the message, the hidden
sample and the Bell readout in their phase functions, Eve's coins in
``harness._pool``.  The tests here compare each primitive and each recipe
with numpy's own calls on ``copy.deepcopy`` twin generators, in the order
and sizes of the session run alone, numbers and final generator state
alike; the state is read with the half-word buffer the source keeps, so
all of it is compared.  A failure names the installed numpy.
"""

from __future__ import annotations

import ast
import copy
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperqsdc
from hyperqsdc import adversary as adv
from hyperqsdc import draws, harness
from hyperqsdc.adversary import BasisPolicy, DefenseConfig, EveKind, EveStrategy, PnsKind
from hyperqsdc.draws import DRAW_SITES, DrawSource, session_generators
from hyperqsdc.harness import _pool, _run_group, metrics_text, parse_run_config, run, stats_text
from hyperqsdc.hyperstate import SourceParams
from hyperqsdc.protocol import (
    CHUNK_ROWS,
    FATES,
    ChannelParams,
    PairFate,
    Phase,
    ProtocolConfig,
    decode_group,
    encode_group,
    first_check_group,
    prepare_group,
    transit_draws,
    transmit_forward_group,
    transmit_return_group,
)

from test_harness import config_with

NUMPY = f"numpy {np.__version__}"
SOURCES = sorted(Path(hyperqsdc.__file__).parent.glob("*.py"))
# the Generator methods the package draws with, and the bit generator's raw words
DRAWS = {"random", "integers", "choice", "random_raw"}
# (module, top-level name) that may draw: the draw source alone, which owns
# every generator; all other code takes uniforms or a draw callable from it
ALLOWED = {("draws", "DrawSource")}


def draw_calls(source: str, module: str) -> list:
    """(module, enclosing top-level name or None, line) of each draw in ``source``.

    A draw is a call of one of ``DRAWS``, or any use of a generator's
    ``bit_generator``: its state and its raw words are draws too.  The
    ``numpy.random.bit_generator`` module is not a generator's, and a call
    on ``draws`` or ``<group>.draws`` is one of a ``DrawSource``'s
    primitives, whose ``integers`` shares its name with the generator's.
    """
    calls = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if ((isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                 and node.func.attr in DRAWS
                 and "draws" not in (getattr(node.func.value, "id", None),
                                     getattr(node.func.value, "attr", None)))
                    or (isinstance(node, ast.Attribute) and node.attr == "bit_generator"
                        and getattr(node.value, "attr", None) != "random")):
                calls.append((module, getattr(top, "name", None), node.lineno))
    return calls


def test_only_the_draw_source_calls_a_generator():
    calls = [call for path in SOURCES
             for call in draw_calls(path.read_text(encoding="utf-8"), path.stem)]
    assert [call for call in calls if call[:2] not in ALLOWED] == []
    # the guard sees the draws it allows: the source's raw calls, its state
    # reads and writes, and numpy's own choice for the samples it leaves to it
    assert len([call for call in calls if call[:2] == ("draws", "DrawSource")]) >= 10


def test_the_guard_sees_raw_words_and_state():
    source = ("def f(rng):\n"
              "    words = rng.bit_generator.random_raw(4)\n"
              "    return rng.bit_generator.state\n"
              "class G(np.random.bit_generator.ISeedSequence):\n"
              "    def g(self, rng): return rng.random(2)\n"
              "def h(draws, group):\n"
              "    return draws.integers('bell', m, c, 2), group.draws.rngs[0].integers(2)\n")
    assert sorted(draw_calls(source, "m")) == [("m", "G", 5), ("m", "f", 2), ("m", "f", 2),
                                               ("m", "f", 3), ("m", "h", 7)]


def numpy_random_constructors(source: str, module: str) -> list:
    """(module, line) of each ``np.random.<X>(...)`` call in ``source`` and each import from
    ``numpy.random``: the ways to build a generator or a bit generator.

    An annotation such as ``rng: np.random.Generator`` builds nothing.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if ((isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and getattr(node.func.value, "attr", None) == "random")
                or (isinstance(node, ast.ImportFrom)
                    and (node.module or "").startswith("numpy.random"))):
            found.append((module, node.lineno))
    return sorted(found)


def test_only_the_draw_module_builds_generators():
    found = [call for path in SOURCES
             for call in numpy_random_constructors(path.read_text(encoding="utf-8"), path.stem)]
    assert [call for call in found if call[0] != "draws"] == []
    assert len(found) >= 2  # the guard sees the generators ``session_generators`` builds


def test_the_constructor_guard_sees_calls_and_imports():
    source = ("def f(rng: np.random.Generator, seed):\n"
              "    return np.random.default_rng(seed), rng.random(2)\n"
              "from numpy.random import PCG64\n")
    assert numpy_random_constructors(source, "m") == [("m", 2), ("m", 3)]


def generators(seed: int, buffered: list) -> list:
    """One generator per entry; where the entry is true it holds a buffered uint32."""
    rngs = [np.random.default_rng([seed, j]) for j in range(len(buffered))]
    for rng, held in zip(rngs, buffered):
        if held:
            rng.integers(3)
    return rngs


def states(rngs: list) -> list:
    return [rng.bit_generator.state for rng in rngs]


def drawn_states(source: DrawSource) -> list:
    """The generator states of ``source``, each with the half-word buffer the source keeps.

    A buffer the source has not read yet (-1) is still the generator's own.
    """
    found = states(source.rngs)
    for state, buffered, uinteger in zip(found, source.buffered.tolist(), source.uinteger.tolist()):
        if buffered >= 0:
            state["has_uint32"], state["uinteger"] = buffered, uinteger
    return found


def same(got, expected, what: str) -> None:
    assert np.asarray(got).tolist() == np.asarray(expected).tolist(), (
        f"{what}: DrawSource's draws differ from {NUMPY}'s own calls")


def same_state(source: DrawSource, twins: list) -> None:
    assert drawn_states(source) == states(twins), (
        f"the generator states DrawSource leaves differ from those of {NUMPY}'s own calls")


# ---------------------------------------------------------------------------
# the primitives, one at a time
# ---------------------------------------------------------------------------

# ranges with few rejections, and ranges near 2**31 where Lemire's method
# rejects about half the 32-bit words; 1 draws nothing
RANGES = (1, 2, 3, 16, 112, 2**31 - 1, 2**31, 2**31 + 1, 3 * 2**30 + 7, 2**32 - 5, 2**32)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.lists(st.booleans(), min_size=1, max_size=4),
       st.data())
def test_bounded_integers_then_uniforms_are_numpys(seed, buffered, data):
    # each member's integers in [0, size) one scalar ``integers(size)`` at a
    # time, then ``random(count)``: one raw call per member unless rejected
    counts = data.draw(st.lists(st.integers(0, 6), min_size=len(buffered), max_size=len(buffered)))
    sizes = data.draw(st.lists(st.sampled_from(RANGES), min_size=sum(counts), max_size=sum(counts)))
    uniforms = data.draw(st.lists(st.integers(0, 5), min_size=len(buffered),
                                  max_size=len(buffered)))
    source = DrawSource(generators(seed, buffered))
    twins = copy.deepcopy(source.rngs)
    members = np.arange(len(buffered))[::-1]  # any member order
    ints, u = source.integers("message", members, np.array(counts),
                              np.array(sizes, dtype=np.uint64), np.array(uniforms))
    expected_ints, expected_u, at = [], [], 0
    for j, count, n_u in zip(members, counts, uniforms):
        expected_ints += [twins[j].integers(size) for size in sizes[at:at + count]]
        expected_u += twins[j].random(n_u).tolist()
        at += count
    same(ints, expected_ints, "bounded integers")
    assert u.tolist() == expected_u, f"uniforms differ from {NUMPY}'s random()"
    same_state(source, twins)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.lists(st.booleans(), min_size=1, max_size=4),
       st.sampled_from([2, 3, 16, 112, 2**31 + 1]), st.data())
def test_one_range_for_all_is_numpys_sized_draw(seed, buffered, size, data):
    counts = data.draw(st.lists(st.integers(0, 9), min_size=len(buffered), max_size=len(buffered)))
    source = DrawSource(generators(seed, buffered))
    twins = copy.deepcopy(source.rngs)
    ints, _ = source.integers("transit", np.arange(len(buffered)), np.array(counts), size)
    expected = [twin.integers(size, size=count) for twin, count in zip(twins, counts)]
    same(ints, np.concatenate(expected), "integers(size, size=count)")
    same_state(source, twins)


def test_word_counts_and_rejections_near_two_to_the_31():
    # with 2**31 + 1 about half of all words are rejected: the member draws
    # again, and counts the words it took
    source = DrawSource(generators(5, [False, True]))
    twins = copy.deepcopy(source.rngs)
    ints, _ = source.integers("first_check", np.arange(2), np.array([500, 501]), 2**31 + 1)
    same(ints, np.concatenate([twins[0].integers(2**31 + 1, size=500),
                               twins[1].integers(2**31 + 1, size=501)]), "integers near 2**31")
    same_state(source, twins)
    for j, rng in enumerate(generators(5, [False, True])):
        rng.bit_generator.advance(int(source.words["first_check"][j]))
        assert rng.bit_generator.state["state"] == twins[j].bit_generator.state["state"]
    assert source.words["first_check"].sum() > (500 + 501) // 2 * 1.5  # about twice that


def generator_drawing(word: int) -> np.random.Generator:
    """A PCG64 generator whose next 64-bit word is ``word``.

    PCG64 steps its 128-bit state, then outputs the xor of the new state's
    halves rotated by its top 6 bits (O'Neill's XSL-RR).  A new state equal
    to ``word`` has a zero high half and no rotation, so the generator
    starts one step before it.
    """
    inc = 0x9E3779B97F4A7C15F39CC0605CEDC835  # any odd increment
    before = (word - inc) * pow(draws._PCG_MULT, -1, 2**128) % 2**128
    rng = np.random.default_rng(0)
    rng.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": before, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
    return rng


@pytest.mark.parametrize("size", [3, 5, 2**31 + 1, 3 * 2**30 + 7, 2**32 - 5])
def test_lemire_keeps_a_value_at_its_threshold_and_rejects_one_below(size):
    # v * size mod 2**32 equal to 2**32 mod size is kept, one less is rejected
    threshold = 2**32 % size
    kept, rejected = ((low * pow(size, -1, 2**32)) % 2**32 for low in (threshold, threshold - 1))
    for word in (kept | rejected << 32, rejected | kept << 32, rejected | rejected << 32):
        assert copy.deepcopy(generator_drawing(word)).bit_generator.random_raw() == word
        source = DrawSource([generator_drawing(word)])
        twin = copy.deepcopy(source.rngs[0])
        ints, _ = source.integers("message", np.arange(1), np.array([2]), size)
        same(ints, twin.integers(size, size=2), f"integers({size}) at Lemire's threshold")
        same_state(source, [twin])


@pytest.mark.parametrize("size, uniforms", [(None, 3), (16, 0)])
@pytest.mark.parametrize("buffered", [False, True])
def test_a_rejected_floyd_draw_is_numpys_redraw(size, uniforms, buffered):
    # choice(12, 4) draws first in [0, 9): a half-word Lemire's method rejects
    # there, buffered or the low half of the next word, makes numpy draw
    # again; the source has numpy's Generator redraw the member's whole call
    rejected = (2**32 % 9 - 1) * pow(9, -1, 2**32) % 2**32
    assert draws._lemire(np.array([rejected], dtype=np.uint32), 9)[1].all()
    kept = 2**31 + 5
    rng = generator_drawing((kept if buffered else rejected) | kept << 32)
    if buffered:
        state = rng.bit_generator.state
        state["has_uint32"], state["uinteger"] = 1, rejected
        rng.bit_generator.state = state
    fresh = copy.deepcopy(rng)
    source = DrawSource([rng])
    twin = copy.deepcopy(rng)
    positions, ops, u = source.sample("first_check", [0], [0, 12], [4], size, uniforms)
    same(positions, twin.choice(12, size=4, replace=False), "choice(12, 4, replace=False)")
    if size is None:
        same(u, twin.random(3 * 4), "uniforms after the sample")
    else:
        same(ops, twin.integers(size, size=4), "ops after the sample")
    same_state(source, [twin])
    fresh.bit_generator.advance(int(source.words["first_check"][0]))
    assert fresh.bit_generator.state["state"] == twin.bit_generator.state["state"]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.lists(st.booleans(), min_size=1, max_size=5),
       st.data())
def test_floyd_and_shuffle_are_numpys_choice(seed, buffered, data):
    # k from 1 to 12 of n pairs, Floyd's k draws then a shuffle of k - 1
    ks = data.draw(st.lists(st.integers(1, 12), min_size=len(buffered), max_size=len(buffered)))
    sizes = [data.draw(st.integers(k, 60)) for k in ks]
    starts = np.concatenate([[0], np.cumsum(sizes)]).tolist()
    source = DrawSource(generators(seed, buffered))
    twins = copy.deepcopy(source.rngs)
    members = list(range(len(ks)))
    positions, _, u = source.sample("first_check", members, starts, ks, uniforms=3)
    expected, uniforms = [], []
    for j, k in zip(members, ks):
        expected += (twins[j].choice(sizes[j], size=k, replace=False) + starts[j]).tolist()
        uniforms.append(twins[j].random(3 * k))
    same(positions, expected, "choice(n, k, replace=False)")
    same(u, np.concatenate(uniforms), "uniforms after the sample")
    same_state(source, twins)


# numpy's choice leaves Floyd's algorithm for n > 10000 and k > n // 50; the
# source leaves its own Floyd steps for numpy's choice above 64 samples
BOUNDARIES = [(10_001, 200), (10_001, 201), (20_000, 400), (20_000, 401),
              (100_004, 2000), (100_004, 2001), (1000, 64), (1000, 65)]


@pytest.mark.parametrize("n, k", BOUNDARIES)
@pytest.mark.parametrize("buffered", [False, True])
def test_choice_regimes_meet_where_numpys_do(n, k, buffered):
    source = DrawSource(generators(n + k, [buffered]))
    twins = copy.deepcopy(source.rngs)
    positions, ops, _ = source.sample("hidden_sample", [0], [0, n], [k], 16)
    same(positions, twins[0].choice(n, size=k, replace=False), f"choice({n}, {k}, replace=False)")
    same(ops, twins[0].integers(16, size=k), "hidden ops")
    same_state(source, twins)
    fresh = generators(n + k, [buffered])[0]
    fresh.bit_generator.advance(int(source.words["hidden_sample"][0]))
    assert fresh.bit_generator.state["state"] == twins[0].bit_generator.state["state"]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.lists(st.booleans(), min_size=3, max_size=3),
       st.lists(st.tuples(st.sampled_from(["bell", "message", "hidden_sample"]),
                          st.lists(st.integers(1, 30), min_size=3, max_size=3)),
                min_size=1, max_size=6))
def test_sites_in_any_order_carry_the_half_word(seed, buffered, steps):
    # uniforms leave a buffered half-word alone; bounded draws take it first
    source = DrawSource(generators(seed, buffered))
    twins = copy.deepcopy(source.rngs)
    for site, sizes in steps:
        starts = np.concatenate([[0], np.cumsum(sizes)]).tolist()
        members = [2, 0, 1]
        if site == "bell":
            got = source.uniforms(site, members, [sizes[j] for j in members])
            expected = np.concatenate([twins[j].random(sizes[j]) for j in members])
        elif site == "message":
            counts = np.array([sizes[j] for j in members])
            got, _ = source.integers(site, np.array(members), counts, 2)
            expected = np.concatenate([twins[j].integers(0, 2, size=sizes[j]) for j in members])
        else:
            ks = [max(1, sizes[j] // 3) for j in members]
            got = np.concatenate(source.sample(site, members, starts, ks, 16)[:2])
            picks, ops = [], []
            for j, k in zip(members, ks):
                picks.append(twins[j].choice(sizes[j], size=k, replace=False) + starts[j])
                ops.append(twins[j].integers(16, size=k))
            expected = np.concatenate(picks + ops)
        same(got, expected, site)
    same_state(source, twins)


def test_pcg_steps_measure_advance():
    rng = np.random.default_rng(3)
    for steps in (0, 1, 2, 7, 1000, 2**40 + 3, 2**127 + 5):
        before = rng.bit_generator.state["state"]
        rng.bit_generator.advance(steps)
        after = rng.bit_generator.state["state"]
        assert draws._pcg_steps(before["state"], after["state"], after["inc"]) == steps


# ---------------------------------------------------------------------------
# the sites against the sized calls of a session run alone
# ---------------------------------------------------------------------------

# ``DrawSource`` draws a sample of one as the one bounded draw in [0, size)
# and its op as one in [0, 16): numpy's ``choice`` runs Floyd's algorithm for
# a small sample without replacement, which for one element makes that same
# bounded draw, and a shuffle of one element draws nothing.
SIZES = (1, 2, 3, 15, 16, 112, 10_001, 20_000, 100_004)


def test_a_draw_of_one_is_the_draw_choice_makes():
    broken = []
    for seed in range(200):
        for size in SIZES:
            rng = np.random.default_rng(seed)
            if seed % 2:  # leave a buffered uint32 in the generator
                rng.integers(3)
            twin = copy.deepcopy(rng)
            drawn = (rng.choice(size, size=1, replace=False).tolist(), rng.integers(16, size=1).tolist())
            if drawn != ([twin.integers(size)], [twin.integers(16)]) or (
                    rng.bit_generator.state != twin.bit_generator.state):
                broken.append((seed, size))
    assert broken == [], (
        f"numpy {np.__version__} no longer draws choice(n, size=1, replace=False) and "
        f"integers(16, size=1) as one scalar integers(n) and integers(16); a numpy upgrade "
        f"broke the identity DrawSource's samples of one rest on (seed, size): {broken[:5]}")


def test_message_bits_are_the_unsized_draw():
    # the message site's bits are those of ``integers(0, 2, size=bits)``, and
    # leave the generator state of that draw
    capacities = [0, 1, 4, 56, 400, 4001]
    for seed in range(20):
        rngs = [np.random.default_rng([seed, j]) for j in range(len(capacities))]
        for rng in rngs[seed % 2 :: 2]:  # leave a buffered uint32 in half the generators
            rng.integers(3)
        twins = copy.deepcopy(rngs)
        members = list(range(len(capacities)))[::-1]
        source = DrawSource(rngs)
        got, _ = source.integers("message", np.array(members), np.array(capacities[::-1]), 2)
        expected = [twins[j].integers(0, 2, size=bits) for j, bits in zip(members, capacities[::-1])]
        assert got.tolist() == np.concatenate(expected).tolist()
        same_state(source, twins)


def reference_draws(rngs, members, starts, ks) -> tuple:
    """The first-check then the hidden sample draws, member by member with sized calls."""
    positions, uniforms, hidden, ops = [], [], [], []
    for j, k in zip(members, ks):
        rng, size = rngs[j], starts[j + 1] - starts[j]
        positions.append(rng.choice(size, size=k, replace=False) + starts[j])
        uniforms.append(rng.random(3 * k))
    for j, k in zip(members, ks):
        rng, size = rngs[j], starts[j + 1] - starts[j]
        hidden.append(rng.choice(size, size=k, replace=False) + starts[j])
        ops.append(rng.integers(16, size=k))
    return tuple(map(np.concatenate, (positions, uniforms, hidden, ops)))


@pytest.mark.parametrize("members, ks", [
    ([0, 1, 2, 3], [1, 1, 1, 1]),
    ([0, 1, 2, 3], [3, 3, 3, 3]),
    ([0, 1, 2, 3], [1, 3, 1, 3]),
    ([3, 1, 2], [3, 1, 1]),
    ([1, 3], [1, 3]),
])
def test_samples_of_one_and_three_draw_as_sized_calls(members, ks):
    starts = [0, 15, 31, 36, 76]  # members of 15, 16, 5 and 40 pairs in play
    rngs = [np.random.default_rng([7, j]) for j in range(4)]
    twins = copy.deepcopy(rngs)
    source = DrawSource(rngs)
    got = (*source.sample("first_check", members, starts, ks, uniforms=3)[::2],
           *source.sample("hidden_sample", members, starts, ks, 16)[:2])
    expected = reference_draws(twins, members, starts, ks)
    for name, a, b in zip(("positions", "uniforms", "hidden", "ops"), got, expected):
        assert a.dtype.kind == b.dtype.kind and np.array_equal(a, b), name
    same_state(source, twins)


def reference_transit(rngs, members, starts, params, eve, defense) -> tuple:
    """A transit's draws as per-chunk arrays joined at the end, zeros and ones included."""
    slots = len(eve.dof_mask) if eve.kind is EveKind.INTERCEPT_RESEND else 0
    parts = []
    for j in members:
        rng = rngs[j]
        for start in range(starts[j], starts[j + 1], CHUNK_ROWS):
            n = min(CHUNK_ROWS, starts[j + 1] - start)
            if params.loss_prob > 0.0:
                delivered = rng.random(n) >= params.loss_prob
                n = int(np.count_nonzero(delivered))
            else:
                delivered = np.ones(n, dtype=bool)
            x = u = offsets = None
            if slots:
                x = (rng.random((n, slots)) < 0.5 if eve.basis_policy is BasisPolicy.UNIFORM_ZX
                     else np.full((n, slots), eve.basis_policy is BasisPolicy.FIXED_X))
                u = rng.random(n)
            elif eve.kind in adv.TROJAN_KINDS:
                offsets = adv.draw_probes(eve.kind, n, rng.random, defense.filter_tolerance)
            noise = np.zeros(n, dtype=np.intp)
            for weight, p in ((4, params.pauli_p_pol), (1, params.pauli_p_spa)):
                if p > 0.0:
                    hit = np.flatnonzero(rng.random(n) < p)
                    if len(hit):
                        noise[hit] += weight * (1 + rng.integers(3, size=len(hit)))
            screens = np.zeros(n, dtype=np.int8)
            if offsets is not None:
                photons = np.full(n, adv.PROBED_PHOTONS)
                screens = adv.screen(offsets, photons, defense, lambda rows: rng.random(len(rows)))
            parts.append((delivered, x, u, screens, noise))
    delivered, x, u, screens, noise = (
        None if column[0] is None else np.concatenate(column) for column in zip(*parts))
    return delivered, None if x is None else (x, u), screens, noise


TRANSITS = {
    "quiet_intercept": (ChannelParams(), EveStrategy(EveKind.INTERCEPT_RESEND)),
    "quiet_fixed_x": (ChannelParams(), EveStrategy(EveKind.INTERCEPT_RESEND,
                                                   basis_policy=BasisPolicy.FIXED_X)),
    "quiet_noise_only": (ChannelParams(pauli_p_pol=0.05, pauli_p_spa=0.3), EveStrategy()),
    "quiet_trojan": (ChannelParams(), EveStrategy(EveKind.TROJAN_INVISIBLE)),
    "lossy_intercept_spa": (ChannelParams(loss_prob=0.2, pauli_p_spa=0.1),
                            EveStrategy(EveKind.INTERCEPT_RESEND, frozenset({hyperqsdc.Dof.SPA}))),
    "lossy_multiphoton": (ChannelParams(loss_prob=0.1, pauli_p_pol=0.1),
                          EveStrategy(EveKind.TROJAN_MULTIPHOTON)),
    "lossy_only": (ChannelParams(loss_prob=0.5), EveStrategy()),
    "lossy_noisy_invisible": (ChannelParams(loss_prob=0.1, pauli_p_pol=0.2, pauli_p_spa=0.1),
                              EveStrategy(EveKind.TROJAN_INVISIBLE)),
}


@pytest.mark.parametrize("case", TRANSITS)
def test_transit_fills_each_column_as_the_per_chunk_draws_do(case):
    params, eve = TRANSITS[case]
    defense = DefenseConfig(filter_enabled=True, pns_enabled=True,
                            pns_kind=PnsKind.BEAMSPLITTER_5050)
    sizes = [0, 1, 1023, 1024, 1025, 2500, 5]
    starts = np.concatenate([[0], np.cumsum(sizes)]).tolist()
    for members in ([0, 1, 2, 3, 4, 5, 6], [5, 2], [1]):
        rngs = [np.random.default_rng([9, j]) for j in range(len(sizes))]
        rngs[3].integers(3)  # leave a buffered uint32 in one generator
        twins = copy.deepcopy(rngs)
        source = DrawSource(rngs)
        got = transit_draws(source, members, starts, params, eve, defense)
        delivered, drawn_eve, screens, noise = reference_transit(
            twins, members, starts, params, eve, defense)
        for name, a, b in (("delivered", got.delivered, delivered),
                           ("screens", got.screens, screens), ("noise", got.noise, noise)):
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert (got.eve is None) == (drawn_eve is None)
        if drawn_eve is not None:
            for a, b in zip(got.eve, drawn_eve):
                assert a.dtype == b.dtype and np.array_equal(a, b)
        same_state(source, twins)


@pytest.mark.parametrize("short", [False, True])
def test_phases_draw_in_the_order_of_the_session_run_alone(short):
    # four sessions over a quiet line, with two of them short of pairs when
    # ``short`` so that their samples differ in size: where each phase's draws
    # land, and the generator states left, are those of each session's sized
    # calls: choice and 2k basis then k Born uniforms, the message bits,
    # choice and the hidden ops, one Bell uniform per pair returned
    cfg = ProtocolConfig(n_pairs=40, sample_fraction_first=0.2, sample_fraction_second=0.1)
    rngs = [np.random.default_rng([7, j]) for j in range(4)]
    rngs[2].integers(3)  # leave a buffered uint32 in one generator
    twins = copy.deepcopy(rngs)
    group = prepare_group(cfg, SourceParams(1.0, 0.0), DrawSource(rngs))
    lost = np.zeros(group.fates.shape, dtype=bool)
    if short:
        lost[1, ::3] = lost[3, 5:30] = True
        group.fates[lost] = FATES.index(PairFate.LOST_FORWARD)
    transmit_forward_group(group, ChannelParams())
    first_check_group(group, cfg)
    encode_group(group, cfg)
    transmit_return_group(group, ChannelParams())
    decode_group(group, cfg)
    assert group.in_phase(Phase.ACCEPTED).all()
    for j, twin in enumerate(twins):
        rows = (~lost[j]).nonzero()[0]
        k = group.counts[j, 0, 0]
        checked = np.sort(rows[twin.choice(len(rows), size=k, replace=False)])
        u = twin.random(3 * k)
        x = (u[: 2 * k] < 0.5).reshape(-1, 2)
        reads = group.first_reads[j, checked]
        assert np.count_nonzero(group.first_reads[j] >= 0) == k
        same(reads >> 4 & 1, x[:, 0], "pol bases")
        same(reads >> 5 & 1, x[:, 1], "spa bases")
        # a source pair reads one of four correlated outcomes, 0, 3, 12 or 15,
        # each over a quarter of the Born uniform's range
        same(reads & 15, np.array([0, 3, 12, 15])[(u[2 * k :] * 4).astype(int)], "born uniforms")
        chunks = group.sent[j][group.sent[j] >= 0]
        bits = chunks[:, None] >> np.arange(3, -1, -1) & 1  # each chunk's bits, high bit first
        same(bits.ravel(), twin.integers(0, 2, size=bits.size), "message bits")
        left = np.setdiff1d(rows, checked)
        k = np.count_nonzero(group.second[j])
        hidden = np.sort(left[twin.choice(len(left), size=k, replace=False)])
        same(group.second[j].nonzero()[0], hidden, "hidden sample")
        same(group.ops[j, hidden], twin.integers(16, size=k), "hidden ops")
        twin.random(len(left))  # the Bell readout's uniforms
    if short:
        assert len(set(group.counts[:, 0, 0].tolist())) == 3
    same_state(group.draws, twins)


# ---------------------------------------------------------------------------
# word counts and raw calls in a run
# ---------------------------------------------------------------------------

HOSTILE = dict(sessions="6", n_pairs="40", seed="11", loss_prob="0.1", pauli_p_pol="0.05",
               pauli_p_spa="0.05", kind="intercept_resend", error_threshold="1.0",
               sample_fraction_first="0.1", sample_fraction_second="0.1")


def test_word_counts_advance_fresh_twins_to_each_generator(monkeypatch):
    # every generator of a hostile group, and Eve's coin generators, is a
    # fresh one advanced by the words its source counted for it
    made = []
    seeded = DrawSource.seeded

    def recorded(*args):
        made.append((args, seeded(*args)))
        return made[-1][1]

    monkeypatch.setattr(DrawSource, "seeded", recorded)
    rc = parse_run_config(config_with(**HOSTILE))
    stats = harness.RunStats()
    group = _run_group(rc, rc.seed, range(rc.sessions))
    _pool(stats, None, rc, rc.seed, range(rc.sessions), group)
    (protocol_args, source), *eve_made = made
    assert protocol_args == (rc.seed, range(rc.sessions)) and source is group.draws
    assert len(eve_made) == 1
    words = group.draws.words
    assert all(words[site].sum() for site in DRAW_SITES if site != "eve_coins")
    handed = drawn_states(group.draws)
    assert any(state["has_uint32"] for state in handed)
    for k, state in enumerate(handed):
        twin = session_generators(rc.seed, [k])[0].bit_generator
        twin.advance(sum(int(words[site][k]) for site in DRAW_SITES))
        expected = twin.state  # ``advance`` empties the buffer: the source's goes in
        expected["has_uint32"], expected["uinteger"] = state["has_uint32"], state["uinteger"]
        assert state == expected
    (seed, coined, *tail), coins = eve_made[0]
    assert seed == rc.seed and tail == [0xE7E] and coins.words["eve_coins"].all()
    for i, k in enumerate(coined):
        twin = session_generators(rc.seed, [k], 0xE7E)[0].bit_generator
        twin.advance(int(coins.words["eve_coins"][i]))
        assert coins.rngs[i].bit_generator.state == twin.state
    assert stats.draws == {site: int(words[site].sum() + coins.words[site].sum())
                           for site in DRAW_SITES}


def test_draw_counts_reach_the_metrics_not_the_stats_file():
    rc = parse_run_config(config_with(**HOSTILE))
    stats, _ = run(rc)
    assert json.loads(metrics_text(stats))["draws"] == stats.draws
    assert all(stats.draws.values())
    text = stats_text(rc, rc.seed, stats)
    stats.draws = dict.fromkeys(DRAW_SITES, 0)
    assert stats_text(rc, rc.seed, stats) == text


class SpyBits:
    """A bit generator that counts its ``random_raw`` calls, sized and unsized."""

    def __init__(self, bits):
        self.bits, self.sized, self.unsized = bits, 0, 0

    def random_raw(self, size=None):
        if size is None:
            self.unsized += 1
        else:
            self.sized += 1
        return self.bits.random_raw(size)

    @property
    def state(self):
        return self.bits.state

    @state.setter
    def state(self, value):
        self.bits.state = value


class SpyGenerator:
    """A generator that counts the calls of its draw methods and lends out a ``SpyBits``."""

    def __init__(self, rng):
        self.rng, self.bit_generator, self.calls = rng, SpyBits(rng.bit_generator), 0

    def __getattr__(self, name):
        if name in ("random", "integers", "choice"):
            self.calls += 1
        return getattr(self.rng, name)


@pytest.mark.parametrize("sessions, n_pairs", [(500, 16), (100, 112)])
def test_each_member_makes_one_raw_call_per_site(monkeypatch, sessions, n_pairs):
    # the tiny_blocks and ideal_sessions runs: no Generator draw method is
    # called, and a site takes one random_raw call per member; the sized
    # calls are counted per member under the site a primitive names
    spies = []

    def spied(*args):
        spies.extend(SpyGenerator(rng) for rng in session_generators(*args))
        return spies[-len(args[1]):]

    per_site = {}
    inside = []  # the site of the primitive running; one that another calls counts there

    def counted(name):
        primitive = getattr(DrawSource, name)

        def wrapper(self, site, *args, **kwargs):
            if inside:
                return primitive(self, site, *args, **kwargs)
            before = [spy.bit_generator.sized for spy in spies]
            inside.append(site)
            out = primitive(self, site, *args, **kwargs)
            inside.pop()
            made = [spy.bit_generator.sized - b for spy, b in zip(spies, before)]
            per_site[site] = [a + b for a, b in zip(per_site.get(site, [0] * len(made)), made)]
            return out
        return wrapper

    monkeypatch.setattr(draws, "session_generators", spied)
    for name in ("uniforms", "integers", "sample", "blocks"):
        monkeypatch.setattr(DrawSource, name, counted(name))
    rc = parse_run_config(config_with(sessions=str(sessions), n_pairs=str(n_pairs)))
    stats, _ = run(rc)
    assert stats.accepted == sessions
    assert [spy.calls for spy in spies] == [0] * sessions
    assert per_site == {site: [1] * sessions
                        for site in ("first_check", "message", "hidden_sample", "bell")}
    assert sum(spy.bit_generator.unsized for spy in spies) == 0
