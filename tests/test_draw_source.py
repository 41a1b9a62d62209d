"""Every random draw of a run comes from one object, ``harness.DrawSource``.

The rule that session k draws only from its own generators, in the order
and sizes of the session run alone, lives in that class alone.  A guard
parses the package and fails on a generator draw anywhere else.  The other
tests pin that its scalar draws for samples of one, its int8 message
bits and its transits, filled column by column, give the numbers of the
plain numpy calls.
"""

from __future__ import annotations

import ast
import copy
from pathlib import Path

import numpy as np
import pytest

import hyperqsdc
from hyperqsdc import adversary as adv
from hyperqsdc.adversary import BasisPolicy, DefenseConfig, EveKind, EveStrategy, PnsKind
from hyperqsdc.channel import ChannelParams
from hyperqsdc.harness import CHUNK_ROWS, DrawSource

SOURCES = sorted(Path(hyperqsdc.__file__).parent.glob("*.py"))
DRAWS = {"random", "integers", "choice"}  # the Generator methods the package draws with
# (module, top-level name) that may call them: the draw source, and the
# one-pair and one-signal helpers that take a generator from their caller
ALLOWED = {("harness", "DrawSource"), ("hyperstate", "chbsa"), ("adversary", "craft_trojan"),
           ("adversary", "apply_defenses")}


def draw_calls(path: Path) -> list:
    """(module, enclosing top-level name or None, line) of each ``.random(``, ``.integers(``
    or ``.choice(`` call in a module."""
    calls = []
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in DRAWS):
                calls.append((path.stem, getattr(top, "name", None), node.lineno))
    return calls


def test_only_the_draw_source_calls_a_generator():
    calls = [call for path in SOURCES for call in draw_calls(path)]
    assert [call for call in calls if call[:2] not in ALLOWED] == []
    # the guard sees the draws it allows: each site of the source draws
    assert len([call for call in calls if call[:2] == ("harness", "DrawSource")]) >= 10


# ``DrawSource`` draws a sample of one as ``rng.integers(size)`` and its op as
# ``rng.integers(16)``: numpy's ``choice`` runs Floyd's algorithm for a small
# sample without replacement, which for one element makes that same bounded
# draw, and a shuffle of one element draws nothing.
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


def test_message_bits_are_the_unsized_draw_narrowed_to_int8():
    # ``message`` narrows ``integers(0, 2, size=bits)`` to int8 after the draw,
    # so the bits and the generator state are that draw's
    capacities = [0, 1, 4, 56, 400, 4001]
    for seed in range(20):
        rngs = [np.random.default_rng([seed, j]) for j in range(len(capacities))]
        for rng in rngs[seed % 2 :: 2]:  # leave a buffered uint32 in half the generators
            rng.integers(3)
        twins = copy.deepcopy(rngs)
        members = list(range(len(capacities)))[::-1]
        got = DrawSource(rngs).message(members, capacities[::-1])
        expected = [twins[j].integers(0, 2, size=bits) for j, bits in zip(members, capacities[::-1])]
        assert [bits.dtype for bits in got] == [np.dtype(np.int8)] * len(members)
        assert [bits.tolist() for bits in got] == [bits.tolist() for bits in expected]
        assert [r.bit_generator.state for r in rngs] == [t.bit_generator.state for t in twins]


def reference_draws(rngs, members, starts, ks) -> tuple:
    """``first_check`` then ``hidden_sample`` drawn member by member with sized calls."""
    positions, bases, born, hidden, ops = [], [], [], [], []
    for j, k in zip(members, ks):
        rng, size = rngs[j], starts[j + 1] - starts[j]
        positions.append(rng.choice(size, size=k, replace=False) + starts[j])
        draws = rng.random(3 * k)
        bases.append(draws[: 2 * k])
        born.append(draws[2 * k :])
    for j, k in zip(members, ks):
        rng, size = rngs[j], starts[j + 1] - starts[j]
        hidden.append(rng.choice(size, size=k, replace=False) + starts[j])
        ops.append(rng.integers(16, size=k))
    return (np.concatenate(positions), np.concatenate(bases).reshape(-1, 2), np.concatenate(born),
            np.concatenate(hidden), np.concatenate(ops))


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
    got = (*source.first_check(members, starts, ks), *source.hidden_sample(members, starts, ks))
    expected = reference_draws(twins, members, starts, ks)
    for name, a, b in zip(("positions", "bases", "born", "hidden", "ops"), got, expected):
        assert a.dtype.kind == b.dtype.kind and np.array_equal(a, b), name
    assert [r.bit_generator.state for r in rngs] == [t.bit_generator.state for t in twins]


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
                screens = adv.screen(offsets, photons, defense, rng.random)
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
        got = DrawSource(rngs).transit(members, starts, params, eve, defense)
        delivered, drawn_eve, screens, noise = reference_transit(
            twins, members, starts, params, eve, defense)
        for name, a, b in (("delivered", got.delivered, delivered),
                           ("screens", got.screens, screens), ("noise", got.noise, noise)):
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert (got.eve is None) == (drawn_eve is None)
        if drawn_eve is not None:
            for a, b in zip(got.eve, drawn_eve):
                assert a.dtype == b.dtype and np.array_equal(a, b)
        assert [r.bit_generator.state for r in rngs] == [t.bit_generator.state for t in twins]
