"""Run orchestration: config files, seeded session batches, sweeps, reports.

A run executes N independent sessions.  Session k draws every random
decision from ``numpy.random.default_rng([master_seed, k])``, the
documented counter-based stream split: sessions can be distributed or
reordered without changing any outcome, and a (config, seed) pair pins
the whole run byte for byte.  ``run`` moves consecutive sessions through
the phases in lockstep groups (``protocol.SessionGroup``), which changes
nothing either: every session still draws only from its own generator.

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
from typing import Callable, NamedTuple, Optional

import numpy as np

from .adversary import (
    BasisPolicy,
    DefenseConfig,
    EveKind,
    EveStrategy,
    PnsKind,
    guess_encoding_ops,
)
from .channel import ChannelParams
from .hyperstate import (
    Basis,
    Dof,
    MeasBasis,
    SourceParams,
    correlation_error_probs,
    source_amplitudes,
    source_fidelity,
    source_state,
)
from .protocol import (
    BlockDepleted,
    ConfigError,
    PairFate,
    Phase,
    ProtocolConfig,
    SessionState,
    Verdict,
    decode_group,
    encode_group,
    first_check_group,
    message_capacity,
    prepare_group,
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

    def absorb(self, report) -> None:
        self.n_checked += report.n_checked
        self.n_pol_errors += report.n_pol_errors
        self.n_spa_errors += report.n_spa_errors
        self.n_mismatched += report.n_mismatched_samples

    def rates(self) -> dict:
        n = self.n_checked
        return {
            "n_checked": n,
            "error_rate_pol": self.n_pol_errors / n if n else None,
            "error_rate_spa": self.n_spa_errors / n if n else None,
            "detection_rate": self.n_mismatched / n if n else None,
        }


# Protocol phases that ``run`` times, in order; "pooling" adds each session to the stats.
PHASES = ("prepare", "forward_transit", "first_check", "encode", "return_transit",
          "decode_and_second_check", "pooling")


@dataclass
class RunStats:
    """Pooled outcome of one run; ``wall_time`` and ``phase_seconds`` never reach the stats file."""

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
    phase_seconds: dict = field(default_factory=lambda: dict.fromkeys(PHASES, 0.0))

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
    """Build a RunConfig from INI text, rejecting unknown sections and keys."""
    parser = configparser.ConfigParser()
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


def _random_bits(n: int, rng: np.random.Generator) -> str:
    return (rng.integers(0, 2, size=n) + ord("0")).astype(np.uint8).tobytes().decode("ascii")


class _Laps:
    """Adds the seconds since the previous lap to ``seconds[phase]`` at each lap."""

    def __init__(self, seconds: dict):
        self.seconds = seconds
        self.last = time.perf_counter()

    def __call__(self, phase: str) -> None:
        now = time.perf_counter()
        self.seconds[phase] += now - self.last
        self.last = now


def _run_group(rc: RunConfig, master_seed: int, indices, record: bool = True,
               amps: Optional[np.ndarray] = None, lap: Callable = lambda phase: None) -> list:
    """Run sessions ``indices`` of a run in lockstep (see ``protocol.SessionGroup``).

    Returns per session (final state, sent message or None), or the
    ``BlockDepleted`` error that ended it.  ``lap(phase)`` is called as
    each phase ends.
    """
    rngs = [np.random.default_rng([master_seed, k]) for k in indices]
    group = prepare_group(rc.protocol, rc.source, rngs, record, amps)
    lap("prepare")
    eve_fwd = rc.eve if rc.eve_passes in ("both", "forward") else None
    eve_ret = rc.eve if rc.eve_passes in ("both", "return") else None
    transmit_forward_group(group, rc.channel, eve=eve_fwd, defense=rc.defense)
    lap("forward_transit")
    outcomes: list = []
    passed = []
    reports = first_check_group(group, rc.protocol)
    for j, (session, report) in enumerate(zip(group.sessions, reports)):
        if isinstance(report, BlockDepleted):
            outcomes.append(report)
            continue
        outcomes.append((session, None))
        if report.verdict is Verdict.PASS:
            passed.append(j)
    lap("first_check")
    group = group.members(passed)
    messages = [_random_bits(message_capacity(session, rc.protocol), rng)
                for session, rng, _ in group]
    encode_group(group, messages, rc.protocol)
    lap("encode")
    transmit_return_group(group, rc.channel, eve=eve_ret)
    lap("return_transit")
    for j, message, result in zip(passed, messages, decode_group(group, rc.protocol)):
        outcomes[j] = result if isinstance(result, BlockDepleted) else (outcomes[j][0], message)
    lap("decode_and_second_check")
    return outcomes


def run_one_session(rc: RunConfig, master_seed: int, index: int) -> tuple[SessionState, Optional[str]]:
    """Execute session ``index`` of a run alone; returns (final state, sent message)."""
    (outcome,) = _run_group(rc, master_seed, [index])
    if isinstance(outcome, BlockDepleted):
        raise outcome
    return outcome


# a block stores each row's fate as its index in tuple(PairFate)
_FATE_CODE = {fate: code for code, fate in enumerate(PairFate)}


def _pool(stats: RunStats, transcripts: Optional[list], rc: RunConfig, master_seed: int,
          index: int, outcome) -> None:
    """Add one session's outcome from ``_run_group`` to the run's stats and transcripts."""
    stats.sessions += 1
    if isinstance(outcome, BlockDepleted):
        stats.aborted += 1
        stats.depleted += 1
        return
    session, sent = outcome
    if session.phase is Phase.ACCEPTED:
        stats.accepted += 1
    else:
        stats.aborted += 1
    if session.first_report is not None:
        stats.first_check.absorb(session.first_report)
    if session.second_report is not None:
        stats.second_check.absorb(session.second_report)
    fates = session.fate_codes
    stats.lost_forward += int(np.count_nonzero(fates == _FATE_CODE[PairFate.LOST_FORWARD]))
    stats.lost_return += int(np.count_nonzero(fates == _FATE_CODE[PairFate.LOST_RETURN]))
    stats.trojan_signals += len(session.trojan_positions)
    stats.trojan_filtered += len(session.filtered_positions)
    stats.pns_alarms += len(session.alarmed_positions)
    if session.phase is Phase.ACCEPTED and sent is not None:
        decoded = session.decoded_message
        stats.message_bits_delivered += len(decoded)
        stats.message_pairs_encoded += len(session.message_positions)
        # chunk k of the message went to message_positions[k]
        index_of = {pos: k for k, pos in enumerate(session.message_positions)}
        kept = [index_of[pos] for pos in session.surviving_message_positions]
        want = np.frombuffer(sent.encode("ascii"), dtype=np.uint8).reshape(-1, 4)[kept]
        got = np.frombuffer(decoded.encode("ascii"), dtype=np.uint8).reshape(-1, 4)
        stats.message_bits_wrong += int(np.count_nonzero(want != got))
    if rc.eve.kind is EveKind.INTERCEPT_RESEND:
        encoded = np.flatnonzero(session.op_codes >= 0)
        if encoded.size:
            guess_rng = np.random.default_rng([master_seed, index, 0xE7E])
            guesses = guess_encoding_ops(
                session.eve_forward[encoded], session.eve_return[encoded], guess_rng
            )
            stats.eve_guesses += len(encoded)
            stats.eve_guesses_correct += int(np.count_nonzero(guesses == session.op_codes[encoded]))
    if transcripts is not None:
        transcripts.extend({"session": index, **event} for event in session.transcript)


# Rows per lockstep group of ``run``; a session with more pairs is a group of
# one.  Kernel temporaries grow with the group: on runs of 16-pair sessions,
# 1024-row groups raised peak RSS by about 3 MB (8%), 256-row groups by about
# 1 MB.  At 128 rows, 112-pair sessions run alone and a hostile-channel run
# was 7% slower than one session at a time; in twos it is 13% faster.
GROUP_ROWS = 256


def run(rc: RunConfig, master_seed: Optional[int] = None,
        collect_transcripts: bool = False) -> tuple[RunStats, Optional[list]]:
    """Run all sessions; returns (stats, transcripts or None).

    Consecutive sessions go through the phases in lockstep groups of at most
    ``GROUP_ROWS`` rows; a session larger than that is a group of one.  The
    stats carry the run's wall time and the part of it spent in each of
    ``PHASES``, summed over the groups.
    """
    seed = rc.seed if master_seed is None else master_seed
    stats = RunStats(adversary_present=rc.eve.kind is not EveKind.NONE)
    transcripts = [] if collect_transcripts else None
    started = time.perf_counter()
    lap = _Laps(stats.phase_seconds)
    amps = source_amplitudes(rc.source)
    per_group = max(1, GROUP_ROWS // rc.protocol.n_pairs)
    for first in range(0, rc.sessions, per_group):
        indices = range(first, min(first + per_group, rc.sessions))
        outcomes = _run_group(rc, seed, indices, collect_transcripts, amps, lap)
        for k, outcome in zip(indices, outcomes):
            _pool(stats, transcripts, rc, seed, k, outcome)
        lap("pooling")
    stats.wall_time = time.perf_counter() - started
    return stats, transcripts


def stats_text(rc: RunConfig, seed: int, stats: RunStats) -> str:
    """The byte-stable stats document (config echo + pooled results)."""
    doc = {"config": config_document(rc, seed), "results": stats.to_document()}
    return json.dumps(doc, indent=2) + "\n"


def metrics_text(stats: RunStats) -> str:
    """Wall time and seconds per phase of a run as JSON; never part of the stats file."""
    doc = {"wall_time": stats.wall_time, "phase_seconds": stats.phase_seconds}
    return json.dumps(doc, indent=2) + "\n"


def write_transcripts(path: str, transcripts: list) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for event in transcripts:
            fh.write(json.dumps(event) + "\n")


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
    rows = []
    for r in r_values:
        for phi in phi_values:
            params = SourceParams(float(r), float(phi))
            state = source_state(params)
            pol_z, spa_z = correlation_error_probs(state, MeasBasis(Basis.Z, Basis.Z))
            pol_x, spa_x = correlation_error_probs(state, MeasBasis(Basis.X, Basis.X))
            rows.append(
                (float(r), float(phi), source_fidelity(params), pol_z, pol_x, spa_z, spa_x)
            )
    return rows


def scan_csv(rows: list[tuple]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SCAN_COLUMNS)
    for row in rows:
        writer.writerow([_cell(x) for x in row])
    return buf.getvalue()
