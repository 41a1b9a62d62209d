"""Random numbers made from raw PCG64 words, as numpy's ``Generator`` makes them.

Session k of a run draws from ``numpy.random.default_rng([master_seed, k])``,
and Eve's coins for it from ``default_rng([master_seed, k, 0xE7E])``, the
documented counter-based stream split.  ``session_generators`` seeds a whole
group's generators in one pass, and a ``DrawSource`` makes every draw of a
lockstep group from them with four primitives: ``uniforms``, ``integers``,
``sample`` and ``blocks``.  Each takes the name of its draw site, one of
``DRAW_SITES``, under which it counts the words it takes.  What a phase
draws, and in which order, is written in the phase (``protocol``, and
``harness._pool`` for Eve's coins) as calls of these.

This module imports only numpy and the standard library.
"""

from __future__ import annotations

import functools
from typing import Optional

import numpy as np

# numpy's SeedSequence (O'Neill, "PCG: A Family of Simple Fast Space-Efficient
# Statistically Good Algorithms for Random Number Generation", 2014): its
# entropy words are hashed into a pool of 4 uint32 words, from which
# ``generate_state`` hashes the seed words of a bit generator.
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _uint32_words(value: int) -> list:
    """A non-negative integer as SeedSequence splits it: 32-bit words, least significant first."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """``init * mult**i`` modulo 2**32 for i in 0..count, as a (count + 1, 1) column."""
    constants = [init]
    for _ in range(count):
        constants.append(constants[-1] * mult & _MASK32)
    return np.array(constants, dtype=np.uint32)[:, None]


def _hashmix(values: np.ndarray, constants: np.ndarray) -> np.ndarray:
    # SeedSequence's hashmix, row i with hash constant i: xor, multiply by the
    # next constant, fold the high half down
    values = (values ^ constants[:-1]) * constants[1:]
    return values ^ values >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ result >> 16


@functools.cache
def _seed_words() -> type:
    """The seed sequence that hands a PCG64 the four words ``session_generators`` computed.

    Built on first use: numpy imports ``numpy.random`` only when it is asked
    for, and so the package's import time does not include it.
    """

    class SeedWords(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError(f"precomputed seed words are (4, uint64), not ({n_words}, {dtype})")
            return self.words

    return SeedWords


def session_generators(master_seed: int, indices, *tail: int) -> list:
    """The generator ``np.random.default_rng([master_seed, k, *tail])`` for each k in ``indices``.

    The SeedSequence hash runs once over arrays holding one entry per index,
    so each generator gets the same PCG64 seed words, and draws the same
    numbers, as ``default_rng`` would give it.  An index is one 32-bit
    word: one outside [0, 2**32) raises ValueError, and so does a negative
    ``master_seed`` or ``tail`` value, as it does for ``default_rng``.
    """
    index = np.asarray(indices)
    if index.size and (index.dtype.kind not in "iu" or index.min() < 0 or index.max() > _MASK32):
        raise ValueError(f"session indices must lie in [0, 2**32), got {indices}")
    if min((master_seed, *tail)) < 0:
        raise ValueError(f"master seed and tail values must be non-negative, "
                         f"got {[master_seed, *tail]}")
    # the entropy words, one column per index, padded with zeros to the pool size
    head = _uint32_words(master_seed)
    words = head + [0] + [word for value in tail for word in _uint32_words(value)]
    words += [0] * (_POOL_SIZE - len(words))
    entropy = np.repeat(np.array(words, dtype=np.uint32)[:, None], index.size, axis=1)
    entropy[len(head)] = index
    # the pool takes the first words, then each pool word is mixed into the
    # others, then each further word into every pool word
    consts = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * len(entropy))
    pool = _hashmix(entropy[:_POOL_SIZE], consts[:_POOL_SIZE + 1])
    at = _POOL_SIZE
    for src in range(_POOL_SIZE):
        others = [dst for dst in range(_POOL_SIZE) if dst != src]
        pool[others] = _mix(pool[others], _hashmix(pool[src], consts[at:at + _POOL_SIZE]))
        at += _POOL_SIZE - 1
    for src in range(_POOL_SIZE, len(entropy)):
        pool = _mix(pool, _hashmix(entropy[src], consts[at:at + _POOL_SIZE + 1]))
        at += _POOL_SIZE
    # generate_state(4, uint64): eight uint32 words cycling through the pool,
    # uint64 word j assembled as word 2j | word 2j+1 << 32
    state = _hashmix(np.concatenate([pool, pool]), _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE))
    state = state.astype(np.uint64)
    seeds = np.ascontiguousarray((state[0::2] | state[1::2] << np.uint64(32)).T)
    seed_words = _seed_words()
    return [np.random.Generator(np.random.PCG64(seed_words(row))) for row in seeds]


# PCG64's 128-bit LCG multiplier (O'Neill 2014), with which numpy's PCG64 steps its state.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _pcg_steps(before: int, after: int, inc: int) -> int:
    """How many PCG64 steps, with increment ``inc``, take LCG state ``before`` to ``after``.

    Bit by bit from the lowest, as O'Neill's PCG library measures a distance:
    with an odd increment the low b + 1 bits of the state have period
    2**(b + 1), so bit b of the distance is whether a jump of 2**b steps is
    needed to make bit b of the two states agree.
    """
    steps, bit, mult, plus = 0, 1, _PCG_MULT, inc
    while before != after:
        if (before ^ after) & bit:
            before = (before * mult + plus) & _MASK128
            steps |= bit
        plus = (mult + 1) * plus & _MASK128
        mult = mult * mult & _MASK128
        bit <<= 1
    return steps


def _uniforms(words: np.ndarray) -> np.ndarray:
    """Uniforms in [0, 1) as ``Generator.random`` makes them from 64-bit words.

    A uniform is the word's top 53 bits times 2**-53.

    The uniforms take the place of ``words``, so a draw allocates no second
    array of its size.
    """
    np.right_shift(words, 11, out=words)  # below 2**53 now: exact as int64 and as float64
    uniforms = words.view(np.float64)
    uniforms[...] = words.view(np.int64)  # a cast in place, where a ufunc's out= would copy
    uniforms *= 2.0**-53
    return uniforms


def _lemire(values: np.ndarray, sizes) -> tuple:
    """Lemire's integers in [0, size) from 32-bit ``values``: (integers, rejected mask or None).

    A value is rejected when the low half of ``value * size`` falls below
    2**32 mod size; numpy then draws another value for the same integer.
    One power-of-two size for every value rejects none.
    """
    if np.ndim(sizes) == 0 and sizes & (sizes - 1) == 0:
        return values >> (33 - sizes.bit_length()), None
    scaled = values.astype(np.uint64) * sizes
    return scaled >> 32, (scaled & _MASK32) < (1 << 32) % sizes


def _split(words: np.ndarray, counts: np.ndarray) -> list:
    """Members' joined words cut into blocks, ``counts[i, b]`` words of block b for member i.

    Each block comes back joined in member order.
    """
    filled = counts.any(axis=0)
    if np.count_nonzero(filled) <= 1:  # all words are one block's
        return [words if full else words[:0] for full in filled]
    block = np.repeat(np.tile(np.arange(counts.shape[1], dtype=np.int8), len(counts)),
                      counts.ravel())
    return [words[block == b] for b in range(counts.shape[1])]


# The largest check sample ``DrawSource`` draws by ``_floyd_samples``, one
# step at a time for the whole group; numpy's own ``choice`` draws a larger
# one, whose steps run faster in its loop in C.  That covers every sample
# numpy draws by a tail shuffle instead of Floyd's algorithm (n > 10000 and
# k > n // 50, so k > 200).
_STEPPED_SAMPLE = 64


def _floyd_samples(n: np.ndarray, k: np.ndarray, floyd: np.ndarray,
                   swaps: np.ndarray) -> np.ndarray:
    """The samples ``choice(n[i], k[i], replace=False)`` makes from its bounded draws, joined.

    ``floyd`` holds each member's k Floyd draws, draw t in [0, n - k + t],
    and ``swaps`` its k - 1 shuffle draws, draw s in [0, k - 1 - s], both
    joined in member order.  Floyd's algorithm takes draw t unless an
    earlier step took that value, and n - k + t then; the shuffle swaps
    entry k - 1 - s with the entry draw s names.  Each member's sample sits
    right-aligned in a row as wide as the largest, so that a step works on
    one column for every member at once; -1 pads the rows on the left.
    """
    width = int(k.max())
    pad = np.arange(width) < (width - k)[:, None]
    taken = np.full(pad.shape, -1, dtype=np.int64)
    taken[~pad] = floyd
    fallback = np.where(pad, -1, (n - width)[:, None] + np.arange(width))  # n - k + t
    for c in range(1, width):
        seen = (taken[:, :c] == taken[:, c, None]).any(axis=1)
        taken[seen, c] = fallback[seen, c]
    # shuffle step s swaps column width - 1 - s; a member whose sample is done
    # swaps that column with itself
    columns = np.arange(width - 1, 0, -1)
    partner = np.repeat(columns[None, :], len(k), axis=0)
    partner[np.arange(width - 1) < (k - 1)[:, None]] = np.repeat(width - k, k - 1) + swaps
    rows = np.arange(len(k))
    for s, column in enumerate(columns.tolist()):
        other = partner[:, s]
        held = taken[rows, other]
        taken[rows, other] = taken[:, column]
        taken[:, column] = held
    return taken[~pad]


# The draw sites: the keys of a source's word counts and of ``RunStats.draws``.
DRAW_SITES = ("transit", "first_check", "message", "hidden_sample", "bell", "eve_coins")


class DrawSource:
    """Every random draw of a lockstep group, from each member's own generator.

    Member j draws from ``rngs[j]``.  A primitive returns the draws of the
    members it is given joined in member order, and gives each member the
    numbers, and leaves its generator in the state, of the numpy calls of
    the session run alone.  Member j's pairs in play are positions
    ``starts[j]:starts[j + 1]`` of the group's rows in play (see
    ``protocol._candidates``).

    A primitive takes each member's 64-bit words in one ``random_raw`` call
    (``blocks`` in one per block), and shapes the joined words for the
    whole group at once as numpy's ``Generator`` does with PCG64:

    - a uniform is ``(word >> 11) * 2**-53``;
    - a bounded integer takes 32-bit words: a word's low half, then its high
      half.  The source owns its generators' half-word buffers: it keeps
      each member's left-over high half itself, as PCG64's ``has_uint32``
      and ``uinteger`` would;
    - an integer in [0, size) follows Lemire's method.  A member that
      rejects a 32-bit word steps its generator back over the words of the
      call, and numpy's ``Generator`` draws the whole call again;
    - a check sample of k of n pairs is ``choice(n, k, replace=False)``:
      Floyd's k draws in [0, n - k] ... [0, n - 1], then a shuffle of k - 1
      draws in [0, k - 1] ... [0, 1].  A sample of one is that one draw.
      For k above ``_STEPPED_SAMPLE``, which takes in every sample that
      numpy's ``choice`` draws by shuffling the tail of a full range,
      numpy's ``choice`` draws it.

    Both fallbacks go through ``_by_numpy``, which writes the member's
    half-word buffer into its generator, and reads it back after the draw.

    ``words[site][j]`` counts the 64-bit words member j took at each of
    ``DRAW_SITES``.  ``tests/test_draw_source.py`` compares every primitive
    and site with numpy's own calls on twin generators, numbers and state.
    """

    def __init__(self, rngs: list):
        self.rngs = rngs
        # per member: whether a half-word is buffered (-1: not read from the
        # generator yet), and the last one buffered, PCG64's ``uinteger``
        self.buffered = np.full(len(rngs), -1, dtype=np.int8)
        self.uinteger = np.zeros(len(rngs), dtype=np.int64)
        self.words = {site: np.zeros(len(rngs), dtype=np.int64) for site in DRAW_SITES}

    @classmethod
    def seeded(cls, master_seed: int, sessions, *tail: int) -> "DrawSource":
        """The source of generators ``default_rng([master_seed, k, *tail])``, k in ``sessions``.

        The generators are fresh, so they buffer nothing.
        """
        source = cls(session_generators(master_seed, sessions, *tail))
        source.buffered[:] = 0
        return source

    def _read_buffers(self, members: np.ndarray) -> None:
        # the buffers of the members the source has not read yet, from their generators
        for j in members[self.buffered[members] < 0]:
            state = self.rngs[j].bit_generator.state
            self.buffered[j], self.uinteger[j] = state["has_uint32"], state["uinteger"]

    def _by_numpy(self, site: str, j: int, draw, rewind: int = 0, buffer: tuple = ()):
        """``draw(rng)`` on member j's own generator: numpy's ``Generator`` makes the draw.

        The generator first steps back ``rewind`` words, and takes the
        half-word buffer ``buffer``, (has_uint32, uinteger), or else the one
        the source keeps.  The source then reads the buffer back, and counts
        the words the draw took beyond the ``rewind`` already counted.
        """
        bits = self.rngs[j].bit_generator
        if rewind:  # ``advance`` empties the buffer, so only when it must
            bits.advance(-rewind)
        state = bits.state
        has_uint32, uinteger = buffer or (self.buffered[j], self.uinteger[j])
        if has_uint32 >= 0:  # -1: the generator holds a buffer the source has not read
            state["has_uint32"], state["uinteger"] = int(has_uint32), int(uinteger)
            bits.state = state
        drawn = draw(self.rngs[j])
        after = bits.state
        self.buffered[j], self.uinteger[j] = after["has_uint32"], after["uinteger"]
        self.words[site][j] += _pcg_steps(state["state"]["state"], after["state"]["state"],
                                          after["state"]["inc"]) - rewind
        return drawn

    def _raw(self, site: str, members: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """``counts[i]`` 64-bit words from the generator of ``members[i]``, joined.

        The members are distinct: each makes one call.
        """
        self.words[site][members] += counts
        parts = [self.rngs[j].bit_generator.random_raw(count)
                 for j, count in zip(members.tolist(), counts.tolist()) if count]
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.uint64)

    def uniforms(self, site: str, members, counts) -> np.ndarray:
        """``counts[i]`` uniforms in [0, 1) for ``members[i]``, joined: ``random(counts[i])``."""
        return _uniforms(self._raw(site, np.asarray(members), np.asarray(counts)))

    def blocks(self, site: str, members: np.ndarray, blocks: dict, coins=()) -> dict:
        """Each member's uniforms, block by block: ``blocks[name][i]`` of them for ``members[i]``.

        A member draws each block in a call of its own, straight into that
        block's array, so no word is held twice.  A block named in ``coins``
        keeps only whether each uniform is below 1/2, which is whether its
        word is below 2**63.  A member may come more than once, once for
        each chunk of its photons.
        """
        counts = np.column_stack(list(blocks.values())) if blocks else np.empty((len(members), 0))
        np.add.at(self.words[site], members, counts.sum(axis=1, dtype=np.int64))
        drawn = [np.empty(total, dtype=bool if name in coins else np.uint64)
                 for name, total in zip(blocks, counts.sum(axis=0).tolist())]
        ends = np.cumsum(counts, axis=0).tolist()
        for j, row, row_ends in zip(members.tolist(), counts.tolist(), ends):
            bits = self.rngs[j].bit_generator
            for name, words, count, end in zip(blocks, drawn, row, row_ends):
                part = bits.random_raw(count)
                words[end - count:end] = part < 1 << 63 if name in coins else part
        return {name: words if name in coins else _uniforms(words)
                for name, words in zip(blocks, drawn)}

    def integers(self, site: str, members: np.ndarray, counts: np.ndarray, sizes,
                 uniforms: Optional[np.ndarray] = None) -> tuple:
        """``counts[i]`` bounded integers for ``members[i]``, then ``uniforms[i]`` uniforms.

        Integer t of the joined draws lies in [0, sizes[t]), or in [0, sizes)
        when ``sizes`` is one integer of at least 2; a size of 1 gives 0 and
        draws nothing.  One raw call per member takes the words this needs
        when no value is rejected.  Returns (integers, uniforms or None),
        each joined in member order.
        """
        one_size = np.ndim(sizes) == 0
        drawn = None if one_size else sizes > 1
        need = counts if one_size else np.bincount(
            np.repeat(np.arange(len(members)), counts)[drawn], minlength=len(members))
        self._read_buffers(members[need > 0])
        known, uinteger = self.buffered[members], self.uinteger[members]
        buffered = known == 1
        held = buffered & (need > 0)  # the buffered half-word is the member's first value
        paid = (need - held + 1) // 2  # words of the bounded draws
        spare = 2 * paid + held > need  # the high half of the last one is left over
        n_uniform = np.zeros_like(paid) if uniforms is None else uniforms
        words, *u_words = _split(self._raw(site, members, paid + n_uniform),
                                 np.column_stack([paid] if uniforms is None else [paid, n_uniform]))
        halves = words.astype("<u8", copy=False).view("<u4")  # low half, then high half
        ends, firsts = 2 * np.cumsum(paid), np.cumsum(need) - need
        values = halves
        if held.any() or spare.any():  # buffered halves go first; spare halves stay out
            taken = np.ones(len(halves), dtype=bool)
            taken[ends[spare] - 1] = False
            values = np.empty(need.sum(), dtype=np.uint32)
            from_words = np.ones(len(values), dtype=bool)
            from_words[firsts[held]] = False
            values[from_words] = halves[taken]
            values[firsts[held]] = uinteger[held]
        self.buffered[members] = np.where(need > 0, spare, known)
        # PCG64 keeps the high half of its last word as ``uinteger``, also once used
        self.uinteger[members[paid > 0]] = halves[ends[paid > 0] - 1]
        if one_size:
            out, rejected = _lemire(values, sizes)
        else:
            out = np.zeros(len(sizes), dtype=np.uint64)
            out[drawn], rejected = _lemire(values, sizes[drawn])
        if rejected is not None and rejected.any():
            # numpy's Generator redraws the whole call of each member that rejected a value
            u_ends, draw_ends = np.cumsum(n_uniform), np.cumsum(counts)
            every_size = np.broadcast_to(sizes, len(out))
            for i in np.unique(firsts.searchsorted(rejected.nonzero()[0], side="right") - 1):
                mine = slice(draw_ends[i] - counts[i], draw_ends[i])
                theirs = slice(u_ends[i] - n_uniform[i], u_ends[i])
                out[mine], u = self._by_numpy(
                    site, members[i], lambda rng: (rng.integers(0, every_size[mine]),
                                                   rng.bit_generator.random_raw(n_uniform[i])),
                    int(paid[i] + n_uniform[i]), (int(buffered[i]), int(uinteger[i])))
                if u_words:
                    u_words[0][theirs] = u
        return out, _uniforms(u_words[0]) if u_words else None

    def sample(self, site: str, members, starts, ks, size: Optional[int] = None,
               uniforms: int = 0) -> tuple:
        """Each member's check sample of ``ks[i]`` pairs, then per sample pair an integer in
        [0, ``size``) when ``size`` is given, and ``uniforms`` uniforms.

        Returns (positions of the samples in the group's rows in play, the
        integers, the uniforms or None), each joined in member order.
        """
        members, ks, starts = np.asarray(members), np.asarray(ks), np.asarray(starts)
        n = (starts[1:] - starts[:-1])[members]
        own = ks > _STEPPED_SAMPLE  # numpy's own choice draws these
        chosen = [self._by_numpy(site, members[i],
                                 lambda rng: rng.choice(n[i], size=ks[i], replace=False))
                  for i in own.nonzero()[0]]
        floyd = np.where(own, 0, ks)
        counts = floyd + np.maximum(floyd - 1, 0) + (0 if size is None else ks)
        owner = np.repeat(np.arange(len(members)), counts)
        t = np.arange(len(owner)) - (np.cumsum(counts) - counts)[owner]
        k, f = ks[owner], floyd[owner]
        # Floyd's draws, the shuffle's, then the integers after the sample, if any
        sizes = np.where(t < f, n[owner] - k + 1 + t, np.where(t < 2 * f - 1, 2 * k - t, size or 1))
        ints, u = self.integers(site, members, counts, sizes.astype(np.uint64),
                                uniforms * ks if uniforms else None)
        ints = ints.astype(np.int64)
        if chosen and own.all():
            picks = chosen[0] if len(chosen) == 1 else np.concatenate(chosen)
        else:
            picks = np.empty(ks.sum(), dtype=np.int64)
            by_numpy = np.repeat(own, ks)
            picks[~by_numpy] = _floyd_samples(n[~own], ks[~own], ints[t < f],
                                              ints[(t >= f) & (t < 2 * f - 1)])
            if chosen:
                picks[by_numpy] = np.concatenate(chosen)
        picks += np.repeat(starts[members], ks)
        return picks, ints[t >= 2 * f - 1], u
