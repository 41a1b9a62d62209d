"""Desk-scale simulator of a two-way direct-communication protocol that
carries 4 bits per round trip on polarization and spatial-mode entangled
photon pairs, with eavesdropping checks on both passes."""

from .adversary import (
    BasisPolicy,
    DefenseConfig,
    DefenseVerdict,
    EveKind,
    EveStrategy,
    PnsKind,
)
from .harness import (
    RunConfig,
    RunStats,
    attack_sweep,
    load_run_config,
    parse_run_config,
    run,
    run_one_session,
    scan_csv,
    source_fidelity_scan,
    stats_text,
    sweep_csv,
)
from .hyperstate import (
    BELL_BASIS,
    DIM,
    Dof,
    EncodingOp,
    Photon,
    SourceParams,
    correlation_error_probs,
    source_fidelity,
)
from .protocol import (
    BlockDepleted,
    ChannelParams,
    ConfigError,
    PairFate,
    Phase,
    ProtocolConfig,
    Verdict,
)

__version__ = "0.1.0"
