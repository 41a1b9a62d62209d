"""Run orchestration: config files, seeded session batches, sweeps, reports.

A run executes N independent sessions.  Session k draws its protocol from
``numpy.random.default_rng([master_seed, k])`` and Eve's coin flips from
``default_rng([master_seed, k, 0xE7E])``, the documented counter-based
stream split: sessions can be distributed or reordered without changing
any outcome, and a (config, seed) pair pins the whole run byte for byte.
``run`` moves consecutive sessions through the phases in lockstep groups
(``protocol.SessionGroup``), which changes nothing either: a group's one
``DrawSource`` draws for each session from its own generators only.  It
takes raw 64-bit words from each session's PCG64, one call per session and
draw site where it can, and shapes the group's words at once into the
numbers numpy's ``Generator`` calls would give that session.
A group is also the unit of bookkeeping: ``_pool`` adds a finished group
to the stats from its arrays in one call, writing the transcripts of its
sessions as it goes, and ``run_one_session`` runs one session as a group of
one.

The config file is INI text with sections mirroring the component
configs; see ``EXAMPLE_CONFIG``.  Stats serialize as a JSON document with
a fixed key order and no timing information, so identical (config, seed)
runs produce identical bytes.  Wall time and the seconds per protocol
phase live only on the in-memory stats object (``metrics_text``).
"""

from __future__ import annotations

import configparser
import csv
import functools
import io
import json
import math
import operator
import time
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Optional, TextIO

import numpy as np

try:
    import resource
except ImportError:  # not on every platform
    resource = None

from . import adversary as adv
from .adversary import (
    SCREEN_ALARMED,
    SCREEN_FILTERED,
    SCREENS,
    BasisPolicy,
    DefenseConfig,
    EveKind,
    EveStrategy,
    PnsKind,
    guess_encoding_ops,
)
from .channel import ChannelParams, TransitDraws
from .hyperstate import Dof, SourceParams, correlation_error_probs, source_fidelity
from .protocol import (
    DEPLETED_FORWARD,
    DEPLETED_RETURN,
    FATES,
    ConfigError,
    PairFate,
    Phase,
    ProtocolConfig,
    SessionGroup,
    decode_group,
    encode_group,
    first_check_group,
    message_capacities,
    prepare_group,
    transcript_lines,
    transmit_forward_group,
    transmit_return_group,
)


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs; ``parse_run_config`` fills in the file defaults."""

    sessions: int
    seed: int
    source: SourceParams
    protocol: ProtocolConfig
    channel: ChannelParams
    eve: EveStrategy
    eve_passes: str  # both | forward | return
    defense: DefenseConfig

    def __post_init__(self) -> None:
        if not isinstance(self.sessions, int) or self.sessions < 1:
            raise ConfigError(f"sessions must be a positive integer, got {self.sessions}")
        if self.sessions > 2**32:  # session indices are seeded as one 32-bit word each
            raise ConfigError(f"sessions must be at most 2**32, got {self.sessions}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")
        if self.eve_passes not in ("both", "forward", "return"):
            raise ConfigError(f"passes must be both, forward or return, got {self.eve_passes}")


@dataclass
class CheckStats:
    n_checked: int = 0
    n_pol_errors: int = 0
    n_spa_errors: int = 0
    n_mismatched: int = 0

    def add(self, counts) -> None:
        """Add (checked, pol errors, spa errors, mismatched samples)."""
        n, pol, spa, mismatched = counts
        self.n_checked += n
        self.n_pol_errors += pol
        self.n_spa_errors += spa
        self.n_mismatched += mismatched

    def rates(self) -> dict:
        n = self.n_checked
        return {
            "n_checked": n,
            "error_rate_pol": self.n_pol_errors / n if n else None,
            "error_rate_spa": self.n_spa_errors / n if n else None,
            "detection_rate": self.n_mismatched / n if n else None,
        }


# Protocol phases that ``run`` times, in order; "pooling" adds each group to the stats.
PHASES = ("prepare", "forward_transit", "first_check", "encode", "return_transit",
          "decode_and_second_check", "pooling")

# Why an aborted session ended; the counts sum to ``RunStats.aborted``.
ABORT_REASONS = ("first_check_fail", "second_check_fail", "depleted_forward", "depleted_return")

# The draw sites of ``DrawSource``: the keys of its word counts and of ``RunStats.draws``.
DRAW_SITES = ("transit", "first_check", "message", "hidden_sample", "bell", "eve_coins")


@dataclass
class RunStats:
    """Pooled outcome of one run.

    ``wall_time``, ``minor_faults`` (the page faults the run took without
    I/O, None where the platform cannot count them), ``groups`` (the
    lockstep groups the run used), ``phase_seconds``, ``abort_reasons``
    (why each aborted session ended, see ``ABORT_REASONS``) and ``draws``
    (the 64-bit words each of ``DRAW_SITES`` took) never reach the stats
    file; ``metrics_text`` writes them.
    """

    sessions: int = 0
    accepted: int = 0
    aborted: int = 0
    depleted: int = 0
    first_check: CheckStats = field(default_factory=CheckStats)
    second_check: CheckStats = field(default_factory=CheckStats)
    message_bits_delivered: int = 0
    message_bits_wrong: int = 0
    message_pairs_encoded: int = 0
    lost_forward: int = 0
    lost_return: int = 0
    trojan_signals: int = 0
    trojan_filtered: int = 0
    pns_alarms: int = 0
    eve_guesses: int = 0
    eve_guesses_correct: int = 0
    adversary_present: bool = False
    wall_time: float = 0.0
    minor_faults: Optional[int] = None
    groups: int = 0
    phase_seconds: dict = field(default_factory=lambda: dict.fromkeys(PHASES, 0.0))
    abort_reasons: dict = field(default_factory=lambda: dict.fromkeys(ABORT_REASONS, 0))
    draws: dict = field(default_factory=lambda: dict.fromkeys(DRAW_SITES, 0))

    @property
    def message_bit_error_rate(self) -> Optional[float]:
        if self.message_bits_delivered == 0:
            return None
        return self.message_bits_wrong / self.message_bits_delivered

    @property
    def bits_per_photon_transit(self) -> Optional[float]:
        if self.message_pairs_encoded == 0:
            return None
        return self.message_bits_delivered / (2.0 * self.message_pairs_encoded)

    @property
    def eve_bell_guess_accuracy(self) -> Optional[float]:
        if not self.adversary_present or self.eve_guesses == 0:
            return None
        return self.eve_guesses_correct / self.eve_guesses

    def to_document(self) -> dict:
        return {
            "sessions": self.sessions,
            "accepted": self.accepted,
            "aborted": self.aborted,
            "depleted": self.depleted,
            "first_check": self.first_check.rates(),
            "second_check": self.second_check.rates(),
            "message_bit_error_rate": self.message_bit_error_rate,
            "bits_per_photon_transit": self.bits_per_photon_transit,
            "eve_bell_guess_accuracy": self.eve_bell_guess_accuracy,
            "losses": {"forward": self.lost_forward, "return": self.lost_return},
            "trojan": {
                "signals": self.trojan_signals,
                "filtered": self.trojan_filtered,
                "pns_alarms": self.pns_alarms,
            },
        }


# ---------------------------------------------------------------------------
# config file handling
# ---------------------------------------------------------------------------

def _to_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(raw)


def _to_int(raw) -> int:
    """An integer, also when spelled integrally ('112.0'); never truncates."""
    if isinstance(raw, (int, str)):
        try:
            return int(raw)
        except ValueError:
            pass
    value = float(raw)
    if not value.is_integer():
        raise ValueError(raw)
    return int(value)


def _choice(kinds, what: str):
    table = {k.value: k for k in kinds}

    def conv(raw: str):
        key = raw.strip().lower()
        if key not in table:
            raise ConfigError(f"{what} must be one of {sorted(table)}, got {raw!r}")
        return table[key]

    return conv


_DOF_NAMES = {"pol": Dof.POL, "spa": Dof.SPA}


def _parse_dofs(raw: str) -> frozenset:
    names = [part.strip().lower() for part in raw.split(",") if part.strip()]
    try:
        return frozenset(_DOF_NAMES[n] for n in names)
    except KeyError as e:
        raise ConfigError(f"unknown DOF name {e.args[0]!r}; use pol, spa") from None


def _as_is(value):
    return value


def _enum_value(value):
    return value.value


class _Field(NamedTuple):
    section: str
    key: str
    parse: Callable
    default: str  # INI spelling, parsed like file text
    path: str  # attribute path into RunConfig
    echo: Callable = _as_is  # value -> JSON in the stats file's config echo


# The one schema: INI sections and keys, defaults, where each value lands in
# RunConfig and how the stats file echoes it.  Row order is the order of
# EXAMPLE_CONFIG and of the config echo.
_FIELDS = (
    _Field("run", "sessions", _to_int, "100", "sessions"),
    _Field("run", "seed", _to_int, "0", "seed"),
    _Field("source", "r", float, "1.0", "source.r"),
    _Field("source", "phi", float, "0.0", "source.phi"),
    _Field("protocol", "n_pairs", _to_int, "112", "protocol.n_pairs"),
    _Field("protocol", "sample_fraction_first", float, "0.05", "protocol.sample_fraction_first"),
    _Field("protocol", "sample_fraction_second", float, "0.05", "protocol.sample_fraction_second"),
    _Field("protocol", "error_threshold", float, "0.05", "protocol.error_threshold"),
    _Field("channel", "loss_prob", float, "0.0", "channel.loss_prob"),
    _Field("channel", "pauli_p_pol", float, "0.0", "channel.pauli_p_pol"),
    _Field("channel", "pauli_p_spa", float, "0.0", "channel.pauli_p_spa"),
    _Field("adversary", "kind", _choice(EveKind, "adversary kind"), "none", "eve.kind", _enum_value),
    _Field("adversary", "dofs", _parse_dofs, "pol,spa", "eve.dof_mask",
           lambda mask: sorted(d.value for d in mask)),
    _Field("adversary", "basis_policy", _choice(BasisPolicy, "basis_policy"), "uniform",
           "eve.basis_policy", _enum_value),
    _Field("adversary", "passes", lambda raw: raw.strip().lower(), "both", "eve_passes"),
    _Field("defense", "filter_enabled", _to_bool, "false", "defense.filter_enabled"),
    _Field("defense", "filter_tolerance", float, "0.05", "defense.filter_tolerance"),
    _Field("defense", "pns_enabled", _to_bool, "false", "defense.pns_enabled"),
    _Field("defense", "pns_kind", _choice(PnsKind, "pns_kind"), "ideal", "defense.pns_kind",
           _enum_value),
)

# RunConfig attributes that hold a component config, built from their fields.
_COMPONENTS = {
    "source": SourceParams,
    "protocol": ProtocolConfig,
    "channel": ChannelParams,
    "eve": EveStrategy,
    "defense": DefenseConfig,
}


def _example_config() -> str:
    blocks: dict = {}
    for f in _FIELDS:
        blocks.setdefault(f.section, [f"[{f.section}]"]).append(f"{f.key} = {f.default}")
    return "\n\n".join("\n".join(lines) for lines in blocks.values()) + "\n"


EXAMPLE_CONFIG = _example_config()


def _parse(f: _Field, raw, where: str):
    try:
        return f.parse(raw)
    except ConfigError:
        raise
    except (ValueError, AttributeError):
        raise ConfigError(f"{where}: cannot parse {raw!r}") from None


def parse_run_config(text: str) -> RunConfig:
    """Build a RunConfig from INI text, rejecting unknown sections and keys.

    Values are read literally: a ``%`` is part of the value, not interpolation.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as e:
        raise ConfigError(f"config is not valid INI text: {e}") from None
    for key in parser.defaults():
        # configparser would copy these into every section, out of sight of the checks below
        raise ConfigError(f"config field [DEFAULT] {key} is not allowed; put it in its own section")
    for section in parser.sections():
        keys = {f.key for f in _FIELDS if f.section == section}
        if not keys:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser.options(section):
            if key not in keys:
                raise ConfigError(f"unknown config field [{section}] {key}")
    values: dict = {}
    for f in _FIELDS:
        raw = parser.get(f.section, f.key, fallback=f.default)
        value = _parse(f, raw, f"config field [{f.section}] {f.key}")
        head, _, attr = f.path.partition(".")
        if attr:
            values.setdefault(head, {})[attr] = value
        else:
            values[head] = value
    try:
        for name, component in _COMPONENTS.items():
            values[name] = component(**values[name])
        return RunConfig(**values)
    except ConfigError:
        raise
    except ValueError as e:
        # component validators (range checks etc.) speak in field names already
        raise ConfigError(f"invalid config value: {e}") from None


def load_run_config(path: str) -> RunConfig:
    """Read and parse a config file."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_run_config(fh.read())


def config_document(rc: RunConfig, seed: int) -> dict:
    """Normalized config echo embedded in stats files (fixed key order).

    ``[run]`` fields sit at the top level, led by the run's effective seed.
    """
    doc = {"seed": seed}
    for f in _FIELDS:
        if f.path != "seed":
            target = doc if f.section == "run" else doc.setdefault(f.section, {})
            target[f.key] = f.echo(functools.reduce(getattr, f.path.split("."), rc))
    return doc


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


def _minor_faults() -> Optional[int]:
    return None if resource is None else resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class _Laps:
    """Adds the seconds since the previous lap to ``seconds[phase]`` at each lap."""

    def __init__(self, seconds: dict):
        self.seconds = seconds
        self.last = time.perf_counter()

    def __call__(self, phase: str) -> None:
        now = time.perf_counter()
        self.seconds[phase] += now - self.last
        self.last = now


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


# The chunk of photons in which a session draws its transits: a session of
# more pairs draws one chunk after another, in the order that fixes its
# random numbers and so its output bytes.
CHUNK_ROWS = 1024

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


def _per_member(rows: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """How many of the ascending ``rows`` fall in member i's range ``bounds[i]:bounds[i + 1]``."""
    return np.diff(np.searchsorted(rows, bounds))


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


class DrawSource:
    """Every random draw of a lockstep group, one method per draw site.

    Member j draws from ``rngs[j]``, and Eve's coins for it from the
    generator seeded with ``[master_seed, sessions[j], 0xE7E]``.  A method
    returns the draws of the members it is given joined in member order,
    and gives each member the numbers, and leaves its generator in the
    state, of the numpy calls of the session run alone.  Member j's pairs
    in play are positions ``starts[j]:starts[j + 1]`` of the group's rows in
    play (see ``protocol._candidates``).

    A site takes each member's 64-bit words in one ``random_raw`` call, or
    in a few where a count depends on what was drawn (loss, noise hits,
    screening), and shapes the joined words for the whole group at once as
    numpy's ``Generator`` does with PCG64:

    - a uniform is ``(word >> 11) * 2**-53``;
    - a bounded integer takes 32-bit words: a word's low half, then its high
      half.  The source keeps each member's left-over high half itself, as
      PCG64's ``has_uint32`` and ``uinteger`` would, until ``hand_back``
      writes it into the generator;
    - an integer in [0, size) follows Lemire's method; a rejected 32-bit
      word makes the member draw another, in a loop over the members that
      rejected only;
    - a check sample of k of n pairs is ``choice(n, k, replace=False)``:
      Floyd's k draws in [0, n - k] ... [0, n - 1], then a shuffle of k - 1
      draws in [0, k - 1] ... [0, 1].  A sample of one is that one draw.
      For k above ``_STEPPED_SAMPLE``, which takes in every sample that
      numpy's ``choice`` draws by shuffling the tail of a full range, the
      member hands its half-word back and calls ``choice`` itself.

    ``words[site][j]`` counts the 64-bit words member j took at each of
    ``DRAW_SITES``.  ``tests/test_draw_source.py`` compares every site with
    numpy's own calls on twin generators, numbers and state.
    """

    def __init__(self, rngs: list, master_seed: Optional[int] = None, sessions=()):
        self.rngs, self.master_seed, self.sessions = rngs, master_seed, np.asarray(sessions)
        # per member: whether a half-word is buffered (-1: not read from the
        # generator yet), and the last one buffered, PCG64's ``uinteger``
        self.buffered = np.full(len(rngs), -1, dtype=np.int8)
        self.uinteger = np.zeros(len(rngs), dtype=np.int64)
        self.words = {site: np.zeros(len(rngs), dtype=np.int64) for site in DRAW_SITES}

    @classmethod
    def seeded(cls, master_seed: int, sessions) -> "DrawSource":
        """The source of sessions ``sessions`` of a run, on fresh generators that buffer nothing."""
        source = cls(session_generators(master_seed, sessions), master_seed, sessions)
        source.buffered[:] = 0
        return source

    def _state(self, j: int) -> dict:
        # member j's generator state, with the source's half-word buffer written into it
        bits = self.rngs[j].bit_generator
        state = bits.state
        if self.buffered[j] >= 0:
            state["has_uint32"], state["uinteger"] = int(self.buffered[j]), int(self.uinteger[j])
            bits.state = state
        return state

    def _read_buffers(self, members: np.ndarray) -> None:
        # the buffers of the members the source has not read yet, from their generators
        for j in members[self.buffered[members] < 0]:
            state = self.rngs[j].bit_generator.state
            self.buffered[j], self.uinteger[j] = state["has_uint32"], state["uinteger"]

    def hand_back(self) -> None:
        """Write the half-word buffer the source keeps for each member into its generator.

        The generators hold their buffers from then on, and the source reads
        one back when it next needs it: a caller that draws from a member's
        generator itself calls this first.
        """
        for j in (self.buffered >= 0).nonzero()[0]:
            self._state(j)
        self.buffered[:] = -1

    def _raw(self, site: str, members: np.ndarray, counts: np.ndarray, rngs=None) -> np.ndarray:
        """``counts[i]`` 64-bit words from the generator of ``members[i]`` (or ``rngs[i]``), joined.

        The members are distinct: each makes one call.
        """
        self.words[site][members] += counts
        rngs = [self.rngs[j] for j in members] if rngs is None else rngs
        parts = [rng.bit_generator.random_raw(count)
                 for rng, count in zip(rngs, counts.tolist()) if count]
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.uint64)

    def _uniform(self, site: str, members: np.ndarray, counts: np.ndarray) -> np.ndarray:
        return _uniforms(self._raw(site, members, counts))

    def _blocks(self, site: str, members: np.ndarray, blocks: dict, coins=()) -> dict:
        """Each member's words, block after block: ``blocks[name][i]`` of them for ``members[i]``.

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
        return dict(zip(blocks, drawn))

    def _bounded(self, site: str, members: np.ndarray, counts: np.ndarray, sizes,
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
            word_ends, u_ends, draw_ends = np.cumsum(paid), np.cumsum(n_uniform), np.cumsum(counts)
            for i in np.unique(firsts.searchsorted(rejected.nonzero()[0], side="right") - 1):
                mine = slice(draw_ends[i] - counts[i], draw_ends[i])
                theirs = slice(u_ends[i] - n_uniform[i], u_ends[i])
                ints, u, self.buffered[members[i]], self.uinteger[members[i]] = self._redraw(
                    site, members[i],
                    [*words[word_ends[i] - paid[i]:word_ends[i]].tolist(),
                     *(u_words[0][theirs].tolist() if u_words else ())],
                    np.broadcast_to(sizes, len(out))[mine].tolist(), n_uniform[i],
                    buffered[i], int(uinteger[i]))
                out[mine] = ints
                if u_words:
                    u_words[0][theirs] = u
        return out, _uniforms(u_words[0]) if u_words else None

    def _redraw(self, site: str, j: int, words: list, sizes: list, n_uniform: int,
                buffered: bool, uinteger: int) -> tuple:
        """Member j's draws at a site one at a time, after a rejection among them.

        It takes ``words``, the ones ``_bounded`` drew for it, and then one
        more from the generator whenever it runs out.  Returns (integers,
        uniform words, buffered, uinteger) as ``_bounded`` makes them.
        """
        bits, at = self.rngs[j].bit_generator, 0

        def word() -> int:
            nonlocal at
            if at == len(words):
                words.append(bits.random_raw())
                self.words[site][j] += 1
            at += 1
            return words[at - 1]

        out = []
        for size in sizes:
            value = 0
            if size > 1:
                threshold = (1 << 32) % size
                while True:
                    if buffered:
                        half, buffered = uinteger, False
                    else:
                        whole = word()
                        half, uinteger, buffered = whole & _MASK32, whole >> 32, True
                    value = half * size
                    if value & _MASK32 >= threshold:
                        break
                value >>= 32
            out.append(value)
        return out, [word() for _ in range(n_uniform)], buffered, uinteger

    def _choice(self, site: str, j: int, size: int, k: int) -> np.ndarray:
        # numpy's own choice, with the source's half-word buffer handed over
        # and taken back, and the words it took counted from the state it left
        before = self._state(j)["state"]["state"]
        sample = self.rngs[j].choice(size, size=k, replace=False)
        after = self.rngs[j].bit_generator.state
        self.buffered[j], self.uinteger[j] = after["has_uint32"], after["uinteger"]
        self.words[site][j] += _pcg_steps(before, after["state"]["state"], after["state"]["inc"])
        return sample

    def _sample(self, site: str, members, starts, ks, ops: int, uniforms: int) -> tuple:
        """Each member's check sample, then per sample pair ``ops`` integers in [0, 16) and
        ``uniforms`` uniforms.

        Returns (positions of the samples in the group's rows in play, the
        integers, the uniforms), each joined in member order.
        """
        members, ks, starts = np.asarray(members), np.asarray(ks), np.asarray(starts)
        n = (starts[1:] - starts[:-1])[members]
        own = ks > _STEPPED_SAMPLE  # numpy's own choice draws these
        chosen = [self._choice(site, members[i], n[i], ks[i]) for i in own.nonzero()[0]]
        floyd = np.where(own, 0, ks)
        counts = floyd + np.maximum(floyd - 1, 0) + ops * ks
        owner = np.repeat(np.arange(len(members)), counts)
        t = np.arange(len(owner)) - (np.cumsum(counts) - counts)[owner]
        k, f = ks[owner], floyd[owner]
        sizes = np.where(t < f, n[owner] - k + 1 + t, np.where(t < 2 * f - 1, 2 * k - t, 16))
        ints, u = self._bounded(site, members, counts, sizes.astype(np.uint64),
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

    def transit(self, members, starts, params: ChannelParams, eve: EveStrategy,
                defense: DefenseConfig) -> TransitDraws:
        """A transit's choices, per chunk in ``channel``'s order; probes tuned to ``defense``.

        A member draws its photons ``CHUNK_ROWS`` at a time, chunk after
        chunk.  Where a chunk draws all its numbers in one call (Eve's choices
        alone), one round draws every chunk; otherwise round r draws chunk r
        of every member that has one, and the rounds' draws are put in member
        order at the end.  A field that nothing draws into keeps its constant
        (all delivered, no Pauli, no probe).
        """
        members, starts = np.asarray(members, dtype=np.intp), np.asarray(starts)
        sizes = (starts[1:] - starts[:-1])[members]
        slots = len(eve.dof_mask) if eve.kind is EveKind.INTERCEPT_RESEND else 0
        # each chunk's member (its position in ``members``), index there and photons
        chunks = -(-sizes // CHUNK_ROWS)
        owner = np.repeat(np.arange(len(members)), chunks)
        index = np.arange(len(owner)) - np.repeat(np.cumsum(chunks) - chunks, chunks)
        n = np.minimum(sizes[owner] - CHUNK_ROWS * index, CHUNK_ROWS)
        one_call = not (params.loss_prob or params.pauli_p_pol or params.pauli_p_spa
                        or eve.kind in adv.TROJAN_KINDS)
        rounds = [] if one_call else [index == r for r in range(int(chunks.max(initial=0)))]
        rounds = rounds or [slice(None)]
        parts = [self._transit_chunk(members[owner[r]], n[r], params, eve, defense, slots)
                 for r in rounds]
        delivered, kept, x, u, screens, noise = parts[0]
        if len(parts) > 1:  # member order: a stable sort keeps each member's chunks in order
            delivered, kept, x, u, screens, noise = map(np.concatenate, zip(*parts))
            owner = np.concatenate([owner[r] for r in rounds])
            sent = np.repeat(owner, np.concatenate([n[r] for r in rounds]))
            sent = np.argsort(sent, kind="stable")
            kept = np.argsort(np.repeat(owner, kept), kind="stable")
            delivered, x, screens, noise = delivered[sent], x[kept], screens[kept], noise[kept]
            u = u[kept] if slots else u
        return TransitDraws(delivered, (x, u) if slots else None, screens, noise)

    def _transit_chunk(self, units: np.ndarray, n: np.ndarray, params: ChannelParams,
                       eve: EveStrategy, defense: DefenseConfig, slots: int) -> tuple:
        """One chunk of ``n[i]`` photons of each ``units[i]``.

        Returns (delivered, photons delivered per unit, Eve's X mask, her
        uniforms, screens, Pauli noise), the last four over the delivered photons.
        """
        site = "transit"
        if params.loss_prob > 0.0:
            delivered = self._uniform(site, units, n) >= params.loss_prob
            n = _per_member(delivered.nonzero()[0], np.concatenate([[0], np.cumsum(n)]))
        else:
            delivered = np.ones(n.sum(), dtype=bool)
        bounds = np.concatenate([[0], np.cumsum(n)])
        probes = eve.kind in adv.TROJAN_KINDS
        zx = slots and eve.basis_policy is BasisPolicy.UNIFORM_ZX
        blocks = {"x": n * slots} if zx else {}
        if slots:
            blocks["u"] = n
        if params.pauli_p_pol > 0.0 and not probes:  # probes draw between these and the noise
            blocks["pol"] = n
        drawn = self._blocks(site, units, blocks, coins=("x",))  # X where below 1/2
        x = (drawn.pop("x").reshape(-1, slots) if zx
             else np.full((bounds[-1], slots), eve.basis_policy is BasisPolicy.FIXED_X))
        if probes:
            offsets = adv.draw_probes(
                eve.kind, bounds[-1],
                lambda shape: self._uniform(site, units, n * math.prod(shape[1:])).reshape(shape),
                defense.filter_tolerance)
        noise = np.zeros(bounds[-1], dtype=np.intp)
        spa = params.pauli_p_spa > 0.0
        u_spa = None
        if params.pauli_p_pol > 0.0:
            u_pol = _uniforms(drawn["pol"]) if "pol" in drawn else self._uniform(site, units, n)
            hit = (u_pol < params.pauli_p_pol).nonzero()[0]
            # the Pauli kind of each pol hit, then the spa uniforms, in one call
            kinds, u_spa = self._bounded(site, units, _per_member(hit, bounds), 3,
                                         n if spa else None)
            noise[hit] += 4 * (1 + kinds.astype(np.intp))
        if spa:
            if u_spa is None:
                u_spa = self._uniform(site, units, n)
            hit = (u_spa < params.pauli_p_spa).nonzero()[0]
            kinds, _ = self._bounded(site, units, _per_member(hit, bounds), 3)
            noise[hit] += 1 + kinds.astype(np.intp)
        screens = np.zeros(bounds[-1], dtype=np.int8)
        if probes:
            screens = adv.screen(
                offsets, np.full(bounds[-1], adv.PROBED_PHOTONS), defense,
                lambda rows: self._uniform(site, units, _per_member(rows, bounds)))
        u = _uniforms(drawn.get("u", np.empty(0, dtype=np.uint64)))
        return delivered, n, x, u, screens, noise

    def first_check(self, members, starts, ks) -> tuple:
        """(first-check positions, (K, 2) pol and spa basis uniforms, one Born uniform each)."""
        positions, _, draws = self._sample("first_check", members, starts, ks, 0, 3)
        # a member's 3k uniforms are 2k basis uniforms, then k Born uniforms
        ks = np.asarray(ks)
        if (ks == ks[0]).all():
            draws = draws.reshape(len(ks), -1)
            bases, born = draws[:, : 2 * ks[0]], draws[:, 2 * ks[0] :]
        else:
            basis = np.arange(len(draws)) < np.repeat(3 * np.cumsum(ks) - ks, 3 * ks)
            bases, born = draws[basis], draws[~basis]
        return positions, bases.reshape(-1, 2), born.ravel()

    def message(self, members, capacities) -> list:
        """Per member, in order, its message: ``capacities[i]`` uniform bits as int8.

        The numbers and the generator state are those of
        ``integers(0, 2, size=capacities[i])``.
        """
        if not len(members):
            return []
        bits, _ = self._bounded("message", np.asarray(members), np.asarray(capacities), 2)
        bits, ends = bits.astype(np.int8), np.cumsum(capacities).tolist()
        return [bits[end - size:end] for end, size in zip(ends, capacities)]

    def hidden_sample(self, members, starts, ks) -> tuple:
        """(second-check positions, an op code uniform over 16 for each)."""
        positions, ops, _ = self._sample("hidden_sample", members, starts, ks, 1, 0)
        return positions, ops

    def bell(self, members, starts) -> np.ndarray:
        """One Bell-readout uniform per pair in play."""
        members, starts = np.asarray(members), np.asarray(starts)
        return self._uniform("bell", members, (starts[1:] - starts[:-1])[members])

    def eve_coins(self, members, counts) -> np.ndarray:
        """Eve's (sum of ``counts``, 2, 2) coin uniforms, ``counts[i]`` for ``members[i]``."""
        members = np.asarray(members)
        rngs = session_generators(self.master_seed, self.sessions[members], 0xE7E)
        words = self._raw("eve_coins", members, 4 * np.asarray(counts), rngs)
        return _uniforms(words).reshape(-1, 2, 2)


def _run_group(rc: RunConfig, master_seed: int, indices,
               lap: Callable = lambda phase: None) -> SessionGroup:
    """Run sessions ``indices`` of a run in lockstep (see ``protocol.SessionGroup``).

    Returns the finished group.  ``lap(phase)`` is called as each phase ends.
    """
    group = prepare_group(rc.protocol, rc.source, DrawSource.seeded(master_seed, indices))
    lap("prepare")
    eve_fwd = rc.eve if rc.eve_passes in ("both", "forward") else None
    eve_ret = rc.eve if rc.eve_passes in ("both", "return") else None
    transmit_forward_group(group, rc.channel, eve=eve_fwd, defense=rc.defense)
    lap("forward_transit")
    first_check_group(group, rc.protocol)
    lap("first_check")
    encode_group(group, group.draws.message(*message_capacities(group, rc.protocol)), rc.protocol)
    lap("encode")
    transmit_return_group(group, rc.channel, eve=eve_ret)
    lap("return_transit")
    decode_group(group, rc.protocol)
    lap("decode_and_second_check")
    return group


def run_one_session(rc: RunConfig, master_seed: int, index: int) -> SessionGroup:
    """Execute session ``index`` of a run alone; returns its finished group of one.

    Raises ``BlockDepleted`` for a session that ran out of pairs.
    """
    group = _run_group(rc, master_seed, [index])
    group.raise_if_depleted(0)
    return group


# bits set in each 4-bit chunk value
_POPCOUNT = np.array([bin(value).count("1") for value in range(16)])


def _pool(stats: RunStats, transcripts: Optional[TextIO], rc: RunConfig, indices,
          group: SessionGroup) -> None:
    """Add the finished sessions ``indices`` of a run, one ``_run_group`` group, to its stats.

    A depleted session adds to the session, abort and depletion counts only.
    Every other session's events go to ``transcripts``, when given, one JSON
    line each, led by the session index.
    """
    kept = group.depleted == 0
    accepted = group.in_phase(Phase.ACCEPTED)
    n_accepted = int(np.count_nonzero(accepted))
    depletions = np.bincount(group.depleted, minlength=3).tolist()
    n_forward, n_return = depletions[DEPLETED_FORWARD], depletions[DEPLETED_RETURN]
    first_fail, second_fail = np.count_nonzero(group.failed, axis=0).tolist()
    stats.sessions += len(kept)
    stats.accepted += n_accepted
    stats.aborted += len(kept) - n_accepted
    stats.depleted += n_forward + n_return
    for reason, count in zip(ABORT_REASONS, (first_fail, second_fail, n_forward, n_return)):
        stats.abort_reasons[reason] += count
    first, second = group.counts[kept].sum(axis=0).tolist()
    stats.first_check.add(first)
    stats.second_check.add(second)
    fates = np.bincount(group.fates[kept].ravel(), minlength=len(FATES)).tolist()
    stats.lost_forward += fates[FATES.index(PairFate.LOST_FORWARD)]
    stats.lost_return += fates[FATES.index(PairFate.LOST_RETURN)]
    screens = np.bincount(group.screens[:, kept].ravel(), minlength=len(SCREENS)).tolist()
    stats.trojan_signals += sum(screens[1:])
    stats.trojan_filtered += screens[SCREEN_FILTERED]
    stats.pns_alarms += screens[SCREEN_ALARMED]
    if n_accepted:
        received = group.received[accepted]
        back = received >= 0
        stats.message_bits_delivered += 4 * int(np.count_nonzero(back))
        stats.message_pairs_encoded += int(np.count_nonzero(group.sent[accepted] >= 0))
        wrong = _POPCOUNT[(received ^ group.sent[accepted])[back]]
        stats.message_bits_wrong += int(wrong.sum())
    if rc.eve.kind is EveKind.INTERCEPT_RESEND:
        encoded = (group.ops >= 0) & kept[:, None]
        counts = np.count_nonzero(encoded, axis=1)
        coined = counts.nonzero()[0]
        if len(coined):
            # Eve's coin flips for the bits she cannot read
            guesses = guess_encoding_ops(*group.eve[:, encoded],
                                         group.draws.eve_coins(coined, counts[coined].tolist()))
            stats.eve_guesses += len(guesses)
            stats.eve_guesses_correct += int(np.count_nonzero(guesses == group.ops[encoded]))
    for site, words in group.draws.words.items():
        stats.draws[site] += int(words.sum())
    if transcripts is not None:
        transcripts.write(transcript_lines(group, kept.nonzero()[0].tolist(), indices))


# Rows per lockstep group of ``run``; a session with more pairs is a group of
# one.  Each phase of a group makes one kernel call on the distinct states
# of its pairs and each draw site one numpy pass over the group's words, so
# a clean group of 112-pair sessions pays a fixed cost of about 2 ms and each
# further session about 25 us (in-process ``run()``, 2-core x86-64, numpy
# 2.4).  At 16384 rows every benchmark workload but the 20,000-pair session
# is one group: ``ideal_sessions`` (11,200 rows) runs in 4.4-6.4 ms instead
# of 9.0-10.0 ms as three 4096-row groups.  The group's per-pair arrays are
# int8, which keeps its tracemalloc peak at 955 KiB (1,670 KiB with int64
# message bits and op codes).
GROUP_ROWS = 16384


def run(rc: RunConfig, master_seed: Optional[int] = None,
        transcripts: Optional[TextIO] = None) -> tuple[RunStats, Optional[TextIO]]:
    """Run all sessions; returns (stats, ``transcripts``).

    Consecutive sessions go through the phases in lockstep groups of at most
    ``GROUP_ROWS`` rows; a session larger than that is a group of one.  The
    stats carry the run's wall time, its minor page faults, its number of
    groups and the part of the wall time spent in each of ``PHASES``, summed
    over the groups.  When ``transcripts``, an open text file, is given, each
    group's sessions are written to it as JSON lines as the group is pooled,
    so a run that fails partway leaves the lines of the groups before.
    """
    seed = rc.seed if master_seed is None else master_seed
    stats = RunStats(adversary_present=rc.eve.kind is not EveKind.NONE)
    faults = _minor_faults()
    started = time.perf_counter()
    lap = _Laps(stats.phase_seconds)
    per_group = max(1, GROUP_ROWS // rc.protocol.n_pairs)
    for first in range(0, rc.sessions, per_group):
        indices = range(first, min(first + per_group, rc.sessions))
        # the finished group is dropped here, before the next one is built
        _pool(stats, transcripts, rc, indices, _run_group(rc, seed, indices, lap))
        lap("pooling")
        stats.groups += 1
    stats.wall_time = time.perf_counter() - started
    if faults is not None:
        stats.minor_faults = _minor_faults() - faults
    return stats, transcripts


def stats_text(rc: RunConfig, seed: int, stats: RunStats) -> str:
    """The byte-stable stats document (config echo + pooled results)."""
    doc = {"config": config_document(rc, seed), "results": stats.to_document()}
    return json.dumps(doc, indent=2) + "\n"


def metrics_text(stats: RunStats) -> str:
    """A run's wall time, minor faults, lockstep groups, phase seconds, abort reasons and draws as JSON.

    None of it is in the stats file.
    """
    doc = {"wall_time": stats.wall_time, "minor_faults": stats.minor_faults, "groups": stats.groups,
           "phase_seconds": stats.phase_seconds, "abort_reasons": stats.abort_reasons,
           "draws": stats.draws}
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# sweeps and scans
# ---------------------------------------------------------------------------

SWEEP_AXES = (
    "loss_prob",
    "pauli_p_pol",
    "pauli_p_spa",
    "pauli_p",
    "n_pairs",
    "sample_fraction_first",
    "sample_fraction_second",
    "error_threshold",
    "sessions",
    "strategy",
)


# pauli_p sets both Pauli fields; strategy is [adversary] kind.  Every other
# axis is the INI key of the field it sets.
_SWEEP_ALIASES = {"pauli_p": ("pauli_p_pol", "pauli_p_spa"), "strategy": ("kind",)}


def _sweep_fields(axis: str) -> list:
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; choose from {', '.join(SWEEP_AXES)}")
    keys = _SWEEP_ALIASES.get(axis, (axis,))
    return [f for f in _FIELDS if f.key in keys]


def _with(rc: RunConfig, path: str, value) -> RunConfig:
    head, _, attr = path.partition(".")
    if attr:
        value = replace(getattr(rc, head), **{attr: value})
    return replace(rc, **{head: value})


# CSV column -> path into RunStats.to_document()
_SWEEP_CELLS = (
    ("sessions", "sessions"),
    ("accepted", "accepted"),
    ("aborted", "aborted"),
    ("depleted", "depleted"),
    ("first_error_pol", "first_check.error_rate_pol"),
    ("first_error_spa", "first_check.error_rate_spa"),
    ("first_detection", "first_check.detection_rate"),
    ("second_error_pol", "second_check.error_rate_pol"),
    ("second_error_spa", "second_check.error_rate_spa"),
    ("second_detection", "second_check.detection_rate"),
    ("message_bit_error_rate", "message_bit_error_rate"),
    ("bits_per_photon_transit", "bits_per_photon_transit"),
    ("eve_bell_guess_accuracy", "eve_bell_guess_accuracy"),
    ("trojan_signals", "trojan.signals"),
    ("trojan_filtered", "trojan.filtered"),
    ("pns_alarms", "trojan.pns_alarms"),
)

SWEEP_COLUMNS = ("axis", "value", *(column for column, _ in _SWEEP_CELLS))


def attack_sweep(rc: RunConfig, axis: str, values: list) -> list[tuple]:
    """One run per axis value (same master seed each); returns (value, stats) rows.

    Values may be raw strings: the axis field's parser converts them, and each
    row carries its value as the stats file's config echo spells it.
    """
    fields = _sweep_fields(axis)
    if not values:
        raise ConfigError("sweep needs at least one axis value")
    points = [_parse(fields[0], raw, f"sweep axis {axis}") for raw in values]
    rows = []
    for value in points:
        point = rc
        for f in fields:
            point = _with(point, f.path, value)
        stats, _ = run(point)
        rows.append((fields[0].echo(value), stats))
    return rows


def _cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def sweep_csv(axis: str, rows: list[tuple]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS)
    for value, stats in rows:
        doc = stats.to_document()
        cells = (functools.reduce(operator.getitem, path.split("."), doc) for _, path in _SWEEP_CELLS)
        writer.writerow([axis, _cell(value), *map(_cell, cells)])
    return buf.getvalue()


SCAN_COLUMNS = ("r", "phi", "fidelity", "err_pol_z", "err_pol_x", "err_spa_z", "err_spa_x")


def source_fidelity_scan(r_values: list, phi_values: list) -> list[tuple]:
    """Exact fidelity and noiseless first-check error rates over an (r, phi) grid."""
    if not r_values or not phi_values:
        raise ConfigError("source scan needs at least one r and one phi value")
    grid = [SourceParams(float(r), float(phi)) for r in r_values for phi in phi_values]
    states = np.array([params.amplitudes for params in grid])
    z = correlation_error_probs(states, np.zeros((len(grid), 2), dtype=bool)).tolist()
    x = correlation_error_probs(states, np.ones((len(grid), 2), dtype=bool)).tolist()
    return [(params.r, params.phi, source_fidelity(params), pol_z, pol_x, spa_z, spa_x)
            for params, (pol_z, spa_z), (pol_x, spa_x) in zip(grid, z, x)]


def scan_csv(rows: list[tuple]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SCAN_COLUMNS)
    for row in rows:
        writer.writerow([_cell(x) for x in row])
    return buf.getvalue()
