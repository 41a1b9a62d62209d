"""Run orchestration: config files, seeded session batches, sweeps, reports.

A run executes N independent sessions.  Session k draws its protocol from
``numpy.random.default_rng([master_seed, k])`` and Eve's coin flips from
``default_rng([master_seed, k, 0xE7E])``, the documented counter-based
stream split: sessions can be distributed or reordered without changing
any outcome, and a (config, seed) pair pins the whole run byte for byte.
``run`` moves consecutive sessions through the phases in lockstep groups
(``protocol.SessionGroup``), which changes nothing either: a group's one
``draws.DrawSource`` draws for each session from its own generators only,
and ``_pool`` draws Eve's coins from a second source on her generators.
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
import operator
import time
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Optional, TextIO

import numpy as np

try:
    import resource
except ImportError:  # not on every platform
    resource = None

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
from .draws import DRAW_SITES, DrawSource
from .hyperstate import Dof, SourceParams, correlation_error_probs, source_fidelity
from .protocol import (
    DEPLETED_FORWARD,
    DEPLETED_RETURN,
    FATES,
    ChannelParams,
    ConfigError,
    PairFate,
    Phase,
    ProtocolConfig,
    SessionGroup,
    decode_group,
    encode_group,
    first_check_group,
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
        if self.eve_guesses == 0:
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
    encode_group(group, rc.protocol)
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


def _pool(stats: RunStats, transcripts: Optional[TextIO], rc: RunConfig, master_seed: int,
          indices, group: SessionGroup) -> None:
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
            # Eve's coin flips for the bits she cannot read: (flip, phase) per DOF of each pair
            coins = DrawSource.seeded(master_seed, np.asarray(indices)[coined], 0xE7E)
            u = coins.uniforms("eve_coins", np.arange(len(coined)), 4 * counts[coined])
            # the encoded pairs' record words by index, in the row-major order of a mask
            records = group.eve_codes(group.eve_words(group.eve).reshape(2, -1)
                                      .take(np.flatnonzero(encoded), axis=1))
            guesses = guess_encoding_ops(*records, u.reshape(-1, 2, 2))
            stats.eve_guesses += len(guesses)
            stats.eve_guesses_correct += int(np.count_nonzero(guesses == group.ops[encoded]))
            stats.draws["eve_coins"] += int(coins.words["eve_coins"].sum())
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
    stats = RunStats()
    faults = _minor_faults()
    started = time.perf_counter()
    lap = _Laps(stats.phase_seconds)
    per_group = max(1, GROUP_ROWS // rc.protocol.n_pairs)
    for first in range(0, rc.sessions, per_group):
        indices = range(first, min(first + per_group, rc.sessions))
        # the finished group is dropped here, before the next one is built
        _pool(stats, transcripts, rc, seed, indices, _run_group(rc, seed, indices, lap))
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
