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
    SignalMeta,
    apply_defenses,
    craft_trojan,
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
    Bell,
    BellIndex,
    Dof,
    EncodingOp,
    HyperState,
    Photon,
    SourceParams,
    apply_encoding,
    bell_from_op,
    chbsa,
    correlation_error_probs,
    make_hyper_bell,
    op_from_bell,
    source_fidelity,
    source_state,
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
