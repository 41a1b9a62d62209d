"""Random numbers made from raw PCG64 words, as numpy's ``Generator`` makes them.

Session k of a run draws from ``numpy.random.default_rng([master_seed, k])``,
and Eve's coins for it from ``default_rng([master_seed, k, 0xE7E])``, the
documented counter-based stream split.  ``session_generators`` seeds a whole
group's generators in one pass, as bare PCG64 bit generators with the seed
words ``default_rng`` would give them, and a ``DrawSource`` makes every draw
of a lockstep group from their raw words with four primitives:
``uniforms``, ``integers``, ``sample`` and ``blocks``.  Each takes the name
of its draw site, one of ``DRAW_SITES``, under which it counts the words it
takes.  What a phase draws, and in which order, is written in the phase
(``protocol``, and ``harness._pool`` for Eve's coins) as calls of these.

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
        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            # PCG64 asks for np.uint64 itself, so the dtype object is built only for others
            if n_words != 4 or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
                raise ValueError(f"precomputed seed words are (4, uint64), not ({n_words}, {dtype})")
            return self.words

    return SeedWords


def session_generators(master_seed: int, indices, *tail: int) -> list:
    """The PCG64 bit generator of ``np.random.default_rng([master_seed, k, *tail])`` for each k.

    The SeedSequence hash runs once over arrays holding one entry per index,
    so each generator gets the same PCG64 seed words, and draws the same
    words, as that of ``default_rng``; each holds its words in a seed object
    of its own.  An index is one 32-bit word: one outside [0, 2**32) raises
    ValueError, and so does a negative ``master_seed`` or ``tail`` value, as
    it does for ``default_rng``.
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
    return [np.random.PCG64(seed_words(row)) for row in seeds]


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


def _joined(parts: list) -> np.ndarray:
    """The arrays of 64-bit words ``parts`` end to end; a single part as it is."""
    if len(parts) == 1:  # a member's own ``random_raw`` words
        return parts[0]
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.uint64)


# The largest check sample ``DrawSource`` draws by ``_floyd_samples``, one
# step at a time for the whole group; numpy's own ``choice`` draws a larger
# one, whose steps run faster in its loop in C.  That covers every sample
# numpy draws by a tail shuffle instead of Floyd's algorithm (n > 10000 and
# k > n // 50, so k > 200).
_STEPPED_SAMPLE = 64


def _floyd(taken: np.ndarray, fallback: np.ndarray, partner: np.ndarray) -> np.ndarray:
    """Floyd's steps, then the shuffle's, on samples laid out one per row, in place.

    Column t of ``taken`` holds each row's Floyd draw t, and ``fallback``
    the value the step takes instead when an earlier column holds the
    draw.  Shuffle step s swaps the last column but s with the column
    ``partner[:, s]`` names.
    """
    width = taken.shape[1]
    for c in range(1, width):
        seen = (taken[:, :c] == taken[:, c, None]).any(axis=1)
        taken[seen, c] = fallback[seen, c]
    rows = np.arange(len(taken))
    for s, column in enumerate(range(width - 1, 0, -1)):
        other = partner[:, s]
        held = taken[rows, other]
        taken[rows, other] = taken[:, column]
        taken[:, column] = held
    return taken


def _floyd_samples(n: np.ndarray, k: np.ndarray, floyd: np.ndarray,
                   swaps: np.ndarray) -> np.ndarray:
    """The samples ``choice(n[i], k[i], replace=False)`` makes from its bounded draws, joined.

    ``floyd`` holds each member's k Floyd draws, draw t in [0, n - k + t],
    and ``swaps`` its k - 1 shuffle draws, draw s in [0, k - 1 - s], both
    joined in member order.  Floyd's algorithm takes draw t unless an
    earlier step took that value, and n - k + t then; the shuffle swaps
    entry k - 1 - s with the entry draw s names.  Each member's sample sits
    right-aligned in a row as wide as the largest, so that a step works on
    one column for every member at once; -1 pads the rows on the left, and
    a member whose sample is done swaps a column with itself.
    """
    width = int(k.max(initial=0))
    pad = np.arange(width) < (width - k)[:, None]
    taken = np.full(pad.shape, -1, dtype=np.int64)
    taken[~pad] = floyd
    fallback = np.where(pad, -1, (n - width)[:, None] + np.arange(width))  # n - k + t
    partner = np.repeat(np.arange(width - 1, 0, -1)[None, :], len(k), axis=0)
    partner[np.arange(width - 1) < (k - 1)[:, None]] = np.repeat(width - k, k - 1) + swaps
    return _floyd(taken, fallback, partner)[~pad]


# The words ``DrawSource.seeded`` reads from each fresh generator at once, for
# its first draws: every draw of a clean session of up to about 20 pairs.
_READ_AHEAD = 64

# The draw sites: the keys of a source's word counts and of ``RunStats.draws``.
DRAW_SITES = ("transit", "first_check", "message", "hidden_sample", "bell", "eve_coins")


class DrawSource:
    """Every random draw of a lockstep group, from each member's own PCG64 bit generator.

    Member j draws from ``bits[j]``.  A primitive returns the draws of the
    members it is given joined in member order, and gives each member the
    numbers, and leaves its generator in the state, of the numpy
    ``Generator`` calls of the session run alone.  Member j's pairs in play
    are positions ``starts[j]:starts[j + 1]`` of the group's rows in play
    (see ``protocol._candidates``).

    ``seeded`` reads the first ``_READ_AHEAD`` words of each fresh
    generator at once, and a primitive hands those out first: a call whose
    words all lie there is one gather for the whole group.  Beyond them, a
    primitive takes each member's further 64-bit words in one
    ``random_raw`` call (``blocks`` in one per block).

    A call of ``uniforms``, ``integers`` or ``sample`` is even when its
    members draw alike: the same count, the same read-ahead cursor, and for
    ``integers`` the same uniform count and buffered half-word, for
    ``sample`` the same k of at most ``_STEPPED_SAMPLE``.  An even call
    takes its words as a (members, count) matrix, one member to a row, and
    takes its values as columns: the buffered halves as a first column, a
    sample's Floyd, shuffle and trailing draws as a row's runs of columns.
    Every call of a clean lockstep group is even; loss, noise, Eve and
    depleted members make members differ, and such a call takes its words
    joined end to end and cuts them apart by each member's counts.  The
    layout changes no number: either way each member gets numpy's.

    The source shapes the words of the whole group at once as numpy's
    ``Generator`` does with PCG64:

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

    The source owns its generators' state.  A generator of a ``seeded``
    source may stand up to ``_READ_AHEAD`` words ahead of its stream, until
    ``_unread`` steps it back over the words not handed out; its half-word
    buffer is the one the source keeps.

    ``words[site][j]`` counts the 64-bit words member j took at each of
    ``DRAW_SITES``.  ``tests/test_draw_source.py`` compares every primitive
    and site with numpy's own calls on twin generators, numbers and state.
    """

    def __init__(self, bits: list):
        self.bits = bits
        # per member: whether a half-word is buffered (-1: not read from the
        # generator yet), and the last one buffered, PCG64's ``uinteger``
        self.buffered = np.full(len(bits), -1, dtype=np.int8)
        self.uinteger = np.zeros(len(bits), dtype=np.int64)
        # per member: the words read ahead, and how many of them are handed out
        self.ahead = np.empty((len(bits), 0), dtype=np.uint64)
        self.cursor = np.zeros(len(bits), dtype=np.int64)
        self.words = {site: np.zeros(len(bits), dtype=np.int64) for site in DRAW_SITES}

    @classmethod
    def seeded(cls, master_seed: int, sessions, *tail: int) -> "DrawSource":
        """The source of generators ``default_rng([master_seed, k, *tail])``, k in ``sessions``.

        The generators are fresh, so they buffer nothing; each reads its first
        ``_READ_AHEAD`` words at once.
        """
        source = cls(session_generators(master_seed, sessions, *tail))
        source.buffered[:] = 0
        # one array from the list, faster here than writing each member's row in place
        source.ahead = np.array([bits.random_raw(_READ_AHEAD) for bits in source.bits],
                                dtype=np.uint64).reshape(len(source.bits), _READ_AHEAD)
        return source

    def _read_buffers(self, members: np.ndarray) -> None:
        # the buffers of the members the source has not read yet, from their generators
        for j in members[self.buffered[members] < 0]:
            state = self.bits[j].state
            self.buffered[j], self.uinteger[j] = state["has_uint32"], state["uinteger"]

    def _unread(self, members: np.ndarray) -> None:
        """Steps each member's generator back over the read-ahead words not handed out yet.

        The member's read-ahead is spent then, and its generator stands where
        its stream is.  ``advance`` empties the generator's half-word buffer,
        which is the source's own for a ``seeded`` source.
        """
        width = self.ahead.shape[1]
        for j in members[self.cursor[members] < width].tolist():
            if self.cursor[j] < width:  # a member may come more than once
                self.bits[j].advance(int(self.cursor[j]) - width)
                self.cursor[j] = width

    def _by_numpy(self, site: str, j: int, draw, rewind: int = 0, buffer: tuple = ()):
        """``draw(rng)`` on member j's own generator: numpy's ``Generator`` makes the draw.

        The generator first steps back over its unread words and ``rewind``
        more, and takes the half-word buffer ``buffer``, (has_uint32,
        uinteger), or else the one the source keeps.  The source then reads
        the buffer back, and counts the words the draw took beyond the
        ``rewind`` already counted.
        """
        self._unread(np.array([j]))
        bits = self.bits[j]
        if rewind:  # ``advance`` empties the buffer, so only when it must
            bits.advance(-rewind)
        state = bits.state
        has_uint32, uinteger = buffer or (self.buffered[j], self.uinteger[j])
        if has_uint32 >= 0:  # -1: the generator holds a buffer the source has not read
            state["has_uint32"], state["uinteger"] = int(has_uint32), int(uinteger)
            bits.state = state
        drawn = draw(np.random.Generator(bits))
        after = bits.state
        self.buffered[j], self.uinteger[j] = after["has_uint32"], after["uinteger"]
        self.words[site][j] += _pcg_steps(state["state"]["state"], after["state"]["state"],
                                          after["state"]["inc"]) - rewind
        return drawn

    def _even(self, members: np.ndarray, *alike: np.ndarray) -> bool:
        """Whether the members draw alike: each of ``alike`` and the read-ahead cursor is one
        value for all of them.  A call without members is not even."""
        return len(members) > 0 and all(
            (values == values[0]).all() for values in (*alike, self.cursor[members]))

    def _raw(self, site: str, members: np.ndarray, counts) -> np.ndarray:
        """``counts[i]`` 64-bit words from the generator of ``members[i]``, joined.

        The read-ahead words go first.  The members are distinct: each makes
        at most one ``random_raw`` call, for the words beyond its read-ahead.
        A single ``counts`` is an even call's, whose members stand at the
        same read-ahead cursor (``_even``): its words come as a (members,
        counts) matrix, one member's words to a row.
        """
        self.words[site][members] += counts
        width = self.ahead.shape[1]
        if np.ndim(counts) == 0:
            counts, first = int(counts), int(self.cursor[members[0]])
            ahead = min(counts, width - first)
            self.cursor[members] = first + ahead
            if ahead == counts:
                return self.ahead[members, first:first + counts]
            words = np.empty((len(members), counts), dtype=np.uint64)
            words[:, :ahead] = self.ahead[members, first:first + ahead]
            for row, j in zip(words, members.tolist()):
                row[ahead:] = self.bits[j].random_raw(counts - ahead)
        else:
            at = self.cursor[members]
            ahead = np.minimum(counts, width - at)
            self.cursor[members] = at + ahead
            beyond = counts - ahead
            if not beyond.any():  # every word read ahead: one gather
                columns = np.arange(ahead.sum()) + np.repeat(at + ahead - np.cumsum(ahead), ahead)
                return self.ahead[np.repeat(members, ahead), columns]
            parts = []
            for j, first, n_ahead, n_beyond in zip(members.tolist(), at.tolist(), ahead.tolist(),
                                                   beyond.tolist()):
                if n_ahead:
                    parts.append(self.ahead[j, first:first + n_ahead])
                if n_beyond:
                    parts.append(self.bits[j].random_raw(n_beyond))
            words = _joined(parts)
        if self.ahead.size and (self.cursor == width).all():
            # every member's read-ahead is spent: let the words go
            self.ahead, self.cursor[:] = self.ahead[:, :0].copy(), 0
        return words

    def uniforms(self, site: str, members, counts) -> np.ndarray:
        """``counts[i]`` uniforms in [0, 1) for ``members[i]``, joined: ``random(counts[i])``."""
        members, counts = np.asarray(members), np.asarray(counts)
        if self._even(members, counts):
            return _uniforms(self._raw(site, members, int(counts[0]))).ravel()
        return _uniforms(self._raw(site, members, counts))

    def blocks(self, site: str, members: np.ndarray, blocks: dict, coins=()) -> dict:
        """Each member's uniforms, block by block: ``blocks[name][i]`` of them for ``members[i]``.

        A member's words go straight into each block's array, so no word is
        held twice: its read-ahead words first, then the rest of each block
        in a call of its own.  A block named in ``coins`` keeps only whether
        each uniform is below 1/2, which is whether its word is below 2**63.
        A member may come more than once, once for each chunk of its photons.
        """
        counts = np.column_stack(list(blocks.values())) if blocks else np.empty((len(members), 0))
        np.add.at(self.words[site], members, counts.sum(axis=1, dtype=np.int64))
        drawn = [np.empty(total, dtype=bool if name in coins else np.uint64)
                 for name, total in zip(blocks, counts.sum(axis=0).tolist())]
        ends = np.cumsum(counts, axis=0).tolist()
        width = self.ahead.shape[1]
        for j, row, row_ends in zip(members.tolist(), counts.tolist(), ends):
            bits, at = self.bits[j], int(self.cursor[j])
            for name, words, count, end in zip(blocks, drawn, row, row_ends):
                ahead = min(count, width - at)
                parts = [self.ahead[j, at:at + ahead]] if ahead else []
                if count > ahead:
                    parts.append(bits.random_raw(count - ahead))
                at, start = at + ahead, end - count
                for part in parts:
                    words[start:start + len(part)] = part < 1 << 63 if name in coins else part
                    start += len(part)
            self.cursor[j] = at
        return {name: words if name in coins else _uniforms(words)
                for name, words in zip(blocks, drawn)}

    def integers(self, site: str, members: np.ndarray, counts: np.ndarray, sizes,
                 uniforms: Optional[np.ndarray] = None) -> tuple:
        """``counts[i]`` bounded integers for ``members[i]``, then ``uniforms[i]`` uniforms.

        Integer t of the joined draws lies in [0, sizes[t]), or in [0, sizes)
        when ``sizes`` is one integer of at least 2; a size of 1 gives 0 and
        draws nothing.  Where every member draws ``counts[0]`` integers,
        ``sizes`` may also come as a (members, counts[0]) matrix.  One
        ``_raw`` pass takes the words this needs when no value is rejected.
        Returns (integers, uniforms or None), each joined in member order.
        """
        one_size = np.ndim(sizes) == 0
        drawn = None if one_size else sizes > 1
        if one_size:
            need = counts
        elif drawn.ndim == 2:
            need = np.count_nonzero(drawn, axis=1)
        else:
            need = np.bincount(np.repeat(np.arange(len(members)), counts)[drawn],
                               minlength=len(members))
        self._read_buffers(members[need > 0])
        known, uinteger = self.buffered[members], self.uinteger[members]
        n_uniform = np.zeros_like(need) if uniforms is None else uniforms
        if self._even(members, counts, need, n_uniform, known):
            return self._even_integers(site, members, sizes, int(need[0]), uniforms,
                                       bool(known[0] == 1), uinteger)
        if drawn is not None:
            sizes, drawn = sizes.ravel(), drawn.ravel()
        buffered = known == 1
        held = buffered & (need > 0)  # the buffered half-word is the member's first value
        paid = (need - held + 1) // 2  # words of the bounded draws
        spare = 2 * paid + held > need  # the high half of the last one is left over
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
            u_ends, draw_ends = np.cumsum(n_uniform), np.cumsum(counts)
            every_size = np.broadcast_to(sizes, len(out))
            for i in np.unique(firsts.searchsorted(rejected.nonzero()[0], side="right") - 1):
                mine = slice(draw_ends[i] - counts[i], draw_ends[i])
                out[mine], u = self._redraw(site, members[i], every_size[mine], n_uniform[i],
                                            int(paid[i]), (int(buffered[i]), int(uinteger[i])))
                if u_words:
                    u_words[0][u_ends[i] - n_uniform[i]:u_ends[i]] = u
        return out, _uniforms(u_words[0]) if u_words else None

    def _even_integers(self, site: str, members: np.ndarray, sizes, need: int,
                       uniforms: Optional[np.ndarray], buffered: bool,
                       uinteger: np.ndarray) -> tuple:
        """``integers`` for members that draw alike, one member's draws to a row.

        Each member draws ``need`` half-word values, then as many uniforms as
        every entry of ``uniforms`` says.  Its words form a row: those of its
        values, then those of its uniforms.  Its values are its ``uinteger``
        as a first column when ``buffered``, then the halves of its words in
        order; the high half of its last word is left over when ``need``
        leaves it out.
        """
        n_uniform = 0 if uniforms is None else int(uniforms[0])
        held = buffered and need > 0
        paid = (need - held + 1) // 2
        words = self._raw(site, members, paid + n_uniform).astype("<u8", copy=False)
        halves = words[:, :paid].view("<u4")  # low half, then high half
        values = halves[:, :need - held]
        if held:
            values = np.concatenate([uinteger[:, None].astype(np.uint32), values], axis=1)
        if need:
            self.buffered[members] = 2 * paid + held > need
        if paid:  # PCG64 keeps the high half of its last word as ``uinteger``, also once used
            self.uinteger[members] = halves[:, -1]
        if np.ndim(sizes) == 0:
            out, rejected = _lemire(values, sizes)
        else:
            sizes = sizes.reshape(len(members), -1)
            drawn = sizes > 1
            if drawn.all():
                out, rejected = _lemire(values, sizes)
            else:
                out = np.zeros(sizes.shape, dtype=np.uint64)
                out[drawn], rejected = _lemire(values.ravel(), sizes[drawn])
                rejected = rejected.reshape(len(members), need)
        u_words = words[:, paid:]
        if rejected is not None and rejected.any():
            every_size = np.broadcast_to(sizes, out.shape)
            for i in rejected.any(axis=1).nonzero()[0].tolist():
                out[i], u_words[i] = self._redraw(site, members[i], every_size[i], n_uniform,
                                                  paid, (int(buffered), int(uinteger[i])))
        return out.ravel(), None if uniforms is None else _uniforms(u_words).ravel()

    def _redraw(self, site: str, j: int, sizes: np.ndarray, n_uniform: int, paid: int,
                buffer: tuple) -> tuple:
        """numpy's ``Generator`` draws again the ``integers`` call of member j, which rejected
        a value: its integers in [0, sizes), then the raw words of its ``n_uniform``
        uniforms.

        The generator steps back over the ``paid + n_uniform`` words the call
        took and starts from ``buffer``, the half-word buffer the call began
        with.
        """
        return self._by_numpy(site, j, lambda rng: (rng.integers(0, sizes),
                                                    rng.bit_generator.random_raw(n_uniform)),
                              paid + int(n_uniform), buffer)

    def sample(self, site: str, members, starts, ks, size: Optional[int] = None,
               uniforms: int = 0) -> tuple:
        """Each member's check sample of ``ks[i]`` pairs, then per sample pair an integer in
        [0, ``size``) when ``size`` is given, and ``uniforms`` uniforms.

        Returns (positions of the samples in the group's rows in play, the
        integers, the uniforms or None), each joined in member order.
        """
        members, ks, starts = np.asarray(members), np.asarray(ks), np.asarray(starts)
        n = (starts[1:] - starts[:-1])[members]
        if len(ks) and 0 < ks[0] <= _STEPPED_SAMPLE and (ks == ks[0]).all():
            return self._even_sample(site, members, starts, n, int(ks[0]), size, uniforms)
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

    def _even_sample(self, site: str, members: np.ndarray, starts: np.ndarray, n: np.ndarray,
                     k: int, size: Optional[int], uniforms: int) -> tuple:
        """``sample`` for members that each draw a sample of the same k, one member's draws
        to a row: Floyd's k draws, the shuffle's k - 1, then the k integers after the
        sample, if any.  A sample of one is its one draw.
        """
        m = len(members)
        sizes = np.empty((m, 2 * k - 1 + (0 if size is None else k)), dtype=np.uint64)
        sizes[:, :k] = (n - k + 1)[:, None] + np.arange(k)  # Floyd's draw t in [0, n - k + t]
        sizes[:, k:2 * k - 1] = np.arange(k, 1, -1)  # the shuffle's draw s in [0, k - 1 - s]
        sizes[:, 2 * k - 1:] = size or 1
        ints, u = self.integers(site, members, np.full(m, sizes.shape[1]), sizes,
                                np.full(m, uniforms * k) if uniforms else None)
        ints = ints.astype(np.int64).reshape(sizes.shape)
        picks = ints[:, :k]
        if k > 1:
            picks = _floyd(picks, (n - k)[:, None] + np.arange(k), ints[:, k:2 * k - 1])
        picks = picks + starts[members, None]
        return picks.ravel(), ints[:, 2 * k - 1:].ravel(), u
