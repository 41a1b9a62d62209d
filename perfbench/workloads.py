"""Benchmark workloads: INI generation, correctness gates and exact oracles.

Each workload is one fixed scenario pushed through ``hyperqsdc simulate``;
``BENCHMARK.json`` records why each one is in the set.
The scenario parameters are fixed here; only the master seed comes from the
benchmark's ``--seed``, so the program sees nothing but an INI file and a
seed.

Gates come in two kinds.  ``check_call`` asserts exact identities on the
stats document of one ``simulate`` call.  ``check_pooled`` pools the calls of
one benchmark run and tests sampled frequencies against exact values at 4
standard deviations for the pooled sample count; pooling keeps the number of
statistical tests per run small, so a correct engine trips a gate on well
under one run in a hundred.  Byte-stable digests are deliberately not a gate:
an engine rewrite may change the random draw order once.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

SIGMAS = 4.0

# Substrings that would mark a timing field in the stats document.
TIMING_WORDS = ("time", "wall", "elapsed", "duration")


@dataclass(frozen=True)
class Workload:
    name: str
    gate: str  # clean | hostile | big
    sessions: int
    n_pairs: int
    sample_fraction_first: float = 0.05
    sample_fraction_second: float = 0.05
    error_threshold: float = 0.05
    transcripts: bool = False
    extra: dict = field(default_factory=dict)  # section -> {key: value}

    @property
    def pairs_emitted(self) -> int:
        return self.sessions * self.n_pairs

    def ini(self, seed: int) -> str:
        sections = {
            "run": {"sessions": self.sessions, "seed": seed},
            "protocol": {
                "n_pairs": self.n_pairs,
                "sample_fraction_first": self.sample_fraction_first,
                "sample_fraction_second": self.sample_fraction_second,
                "error_threshold": self.error_threshold,
            },
            **self.extra,
        }
        lines = []
        for section, items in sections.items():
            lines.append(f"[{section}]")
            lines.extend(f"{key} = {value}" for key, value in items.items())
            lines.append("")
        return "\n".join(lines)


HOSTILE_LOSS = 0.1
HOSTILE_PAULI = 0.03

WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="ideal_sessions",
            gate="clean",
            sessions=100,
            n_pairs=112,
        ),
        Workload(
            name="hostile_channel",
            gate="hostile",
            sessions=30,
            n_pairs=112,
            error_threshold=1.0,
            transcripts=True,
            extra={
                "channel": {
                    "loss_prob": HOSTILE_LOSS,
                    "pauli_p_pol": HOSTILE_PAULI,
                    "pauli_p_spa": HOSTILE_PAULI,
                },
                "adversary": {"kind": "intercept_resend", "dofs": "pol,spa", "passes": "both"},
                "defense": {"filter_enabled": "true", "pns_enabled": "true"},
            },
        ),
        Workload(
            name="big_block_check",
            gate="big",
            sessions=1,
            n_pairs=20000,
            sample_fraction_first=0.9996,
            sample_fraction_second=0.0001,
            extra={"adversary": {"kind": "intercept_resend", "dofs": "pol,spa", "passes": "forward"}},
        ),
        Workload(
            name="tiny_blocks",
            gate="clean",
            sessions=500,
            n_pairs=16,
        ),
    )
}

# Sizes for the self-test: same scenarios, a fraction of the work.
TOY = {
    "ideal_sessions": dict(sessions=4),
    "hostile_channel": dict(sessions=4),
    "big_block_check": dict(n_pairs=600, sample_fraction_first=0.99, sample_fraction_second=0.001),
    "tiny_blocks": dict(sessions=20),
}


def toy(wl: Workload) -> Workload:
    return replace(wl, **TOY[wl.name])


def call_seed(workload_seed: int, index: int) -> int:
    """Master seed of the index-th ``simulate`` call of a run."""
    return workload_seed * 100_000 + index


# ---------------------------------------------------------------------------
# exact expectations
# ---------------------------------------------------------------------------

# Both DOFs intercepted in a uniform Z/X basis: each checked DOF disagrees with
# probability 1/4, so a sampled pair shows some disagreement w.p. 1 - (3/4)^2.
BIG_DETECTION_RATE = 7 / 16


def intercept_pauli_check_error(pauli_p: float) -> float:
    """Exact per-DOF first-check disagreement under intercept-resend then Pauli noise.

    Enumerates, on one DOF of the ideal Bell pair phi+: Eve's basis (uniform
    Z/X) and outcome, the channel's Pauli branch (I w.p. 1-p, X/Y/Z w.p. p/3
    each), the check basis (uniform Z/X) and both parties' outcomes.  Plain
    4-dimensional algebra, independent of the package under test.
    """
    import numpy as np

    sq2 = 1.0 / math.sqrt(2.0)
    eye = np.eye(2, dtype=complex)
    had = np.array([[1, 1], [1, -1]], dtype=complex) * sq2
    paulis = (
        (1.0 - pauli_p, eye),
        (pauli_p / 3, np.array([[0, 1], [1, 0]], dtype=complex)),
        (pauli_p / 3, np.array([[0, -1j], [1j, 0]], dtype=complex)),
        (pauli_p / 3, np.array([[1, 0], [0, -1]], dtype=complex)),
    )
    bell = np.array([sq2, 0, 0, sq2], dtype=complex)  # index 2*bit_a + bit_b
    err = 0.0
    for eve_rot in (eye, had):
        for eve_bit in (0, 1):
            ket = np.zeros(2, dtype=complex)
            ket[eve_bit] = 1.0
            proj = eve_rot.conj().T @ np.outer(ket, ket) @ eve_rot
            after = np.kron(proj, eye) @ bell
            p_eve = float(np.vdot(after, after).real)
            if p_eve == 0.0:
                continue
            after = after / math.sqrt(p_eve)
            for weight, sigma in paulis:
                noisy = np.kron(sigma, eye) @ after
                for check_rot in (eye, had):
                    work = np.kron(check_rot, check_rot) @ noisy
                    p_disagree = abs(work[1]) ** 2 + abs(work[2]) ** 2
                    err += 0.5 * p_eve * weight * 0.5 * p_disagree
    return err


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------


def _timing_keys(node, path="") -> list[str]:
    found = []
    if isinstance(node, dict):
        for key, value in node.items():
            where = f"{path}.{key}" if path else key
            if any(word in key.lower() for word in TIMING_WORDS):
                found.append(where)
            found.extend(_timing_keys(value, where))
    return found


def check_call(wl: Workload, doc: dict) -> list[str]:
    """Exact identities one call's stats document must satisfy; returns failures."""
    fails = [f"stats file has a timing field: {k}" for k in _timing_keys(doc)]
    r = doc["results"]
    if r["sessions"] != wl.sessions:
        fails.append(f"sessions {r['sessions']} != {wl.sessions}")
    if r["accepted"] + r["aborted"] != r["sessions"]:
        fails.append(f"accepted {r['accepted']} + aborted {r['aborted']} != sessions {r['sessions']}")
    if wl.gate == "clean":
        if r["accepted"] != wl.sessions:
            fails.append(f"clean run accepted {r['accepted']} of {wl.sessions} sessions")
        if r["bits_per_photon_transit"] != 2.0:
            fails.append(f"bits_per_photon_transit {r['bits_per_photon_transit']!r} != 2.0")
        if r["message_bit_error_rate"] != 0.0:
            fails.append(f"message_bit_error_rate {r['message_bit_error_rate']!r} != 0.0")
    elif wl.gate == "hostile":
        if r["eve_bell_guess_accuracy"] is None:
            fails.append("intercept-resend on both passes left eve_bell_guess_accuracy null")
        if any(r["trojan"].values()):
            fails.append(f"trojan counters nonzero without a Trojan adversary: {r['trojan']}")
    elif wl.gate == "big":
        floor_checked = math.floor(wl.sample_fraction_first * wl.n_pairs) - 1
        if r["first_check"]["n_checked"] < floor_checked:
            fails.append(f"first check sampled {r['first_check']['n_checked']} < {floor_checked} pairs")
    return fails


def _within(label: str, hits: float, n: int, p: float) -> list[str]:
    if n == 0:
        return [f"{label}: no samples"]
    sigma = math.sqrt(p * (1.0 - p) / n)
    got = hits / n
    if abs(got - p) > SIGMAS * sigma:
        return [f"{label} {got:.5f} is not within {SIGMAS:g} sigma ({sigma:.5f}) of {p:.5f} over {n} samples"]
    return []


def _count(check: dict, key: str) -> int:
    return round(check[key] * check["n_checked"]) if check["n_checked"] else 0


def check_pooled(wl: Workload, docs: list[dict]) -> list[str]:
    """Frequency gates over every call of one run; returns failures."""
    results = [d["results"] for d in docs]
    first = [r["first_check"] for r in results]
    n_checked = sum(c["n_checked"] for c in first)
    if wl.gate == "big":
        hits = sum(_count(c, "detection_rate") for c in first)
        return _within("first-check detection rate", hits, n_checked, BIG_DETECTION_RATE)
    if wl.gate == "hostile":
        sent = sum((r["sessions"] - r["depleted"]) * wl.n_pairs for r in results)
        lost = sum(r["losses"]["forward"] for r in results)
        expected = intercept_pauli_check_error(HOSTILE_PAULI)
        return (
            _within("forward loss fraction", lost, sent, HOSTILE_LOSS)
            + _within("first-check pol error rate", sum(_count(c, "error_rate_pol") for c in first), n_checked, expected)
            + _within("first-check spa error rate", sum(_count(c, "error_rate_spa") for c in first), n_checked, expected)
        )
    return []


def load_doc(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
