"""Independent brute-force oracles used to pin expected values in the tests.

Everything here is built from definitions with plain numpy, on purpose not
importing the package under test: 4-dimensional two-qubit algebra for the
single-DOF enumerations and explicit ket bookkeeping for the 16-dimensional
checks.  Exact branch enumeration replaces sampling, so the returned
probabilities are exact up to float rounding.
"""

from __future__ import annotations

import math

import numpy as np

SQ2 = 1.0 / np.sqrt(2.0)

# Bell states of a single DOF as 4-vectors indexed by 2*bit_a + bit_b.
BELL4 = {
    "phi+": np.array([SQ2, 0, 0, SQ2], dtype=complex),
    "phi-": np.array([SQ2, 0, 0, -SQ2], dtype=complex),
    "psi+": np.array([0, SQ2, SQ2, 0], dtype=complex),
    "psi-": np.array([0, SQ2, -SQ2, 0], dtype=complex),
}
BELL4_ORDER = ("phi+", "phi-", "psi+", "psi-")

I2 = np.eye(2, dtype=complex)
PX = np.array([[0, 1], [1, 0]], dtype=complex)
PY = np.array([[0, -1j], [1j, 0]], dtype=complex)
PZ = np.array([[1, 0], [0, -1]], dtype=complex)
H2 = np.array([[1, 1], [1, -1]], dtype=complex) * SQ2

# Single-DOF coding unitaries, by the same 1..4 indexing the protocol uses.
DOF_OP4 = {1: I2, 2: PZ, 3: PX, 4: PX @ PZ}


def apply_2x2(states: np.ndarray, axis: int, ops: np.ndarray) -> np.ndarray:
    """A 2x2 operator on tensor ``axis`` (0 pol_a, 1 pol_b, 2 spa_a, 3 spa_b) of every row of an
    (N, 16) block: one (2, 2) matrix for all rows, or an (N, 2, 2) stack of one per row.

    The generic complex product, term by term: new[.., r, ..] = ops[r, 0] *
    old[.., 0, ..] + ops[r, 1] * old[.., 1, ..].
    """
    n = len(states)
    v = states.reshape(n, 1 << axis, 1, 2, 8 >> axis)
    o = ops.reshape(-1, 1, 2, 2, 1)
    return (o[:, :, :, :1] * v[:, :, :, :1] + o[:, :, :, 1:] * v[:, :, :, 1:]).reshape(n, 16)


def project_rows(work: np.ndarray, probs: np.ndarray, axes: tuple, outcomes: np.ndarray,
                 x: np.ndarray) -> np.ndarray:
    """Reference collapse of the (N, 16) block ``work``, held in its measurement bases, onto
    each row's joint outcome of the ascending tensor ``axes`` (big-endian over them).

    ``probs`` holds each outcome's probability and ``x`` is the (N, len(axes)) bool mask of
    the axes read in X.  The amplitudes of other outcomes are zeroed, the rest divided by
    sqrt(p), then the Hadamard on each X axis, in ascending order, turns the rows back to
    the computational basis through ``apply_2x2``.
    """
    k = np.arange(16)
    outcome_of = sum(((k >> (3 - a)) & 1) << (len(axes) - 1 - m) for m, a in enumerate(axes))
    out = np.where(outcome_of == outcomes[:, None], work, 0.0)
    out = out / np.sqrt(probs).astype(complex)[:, None]
    for m, axis in enumerate(axes):
        out = apply_2x2(out, axis, np.where(x[:, m, None, None], H2, I2))
    return out


def _on_a(m: np.ndarray) -> np.ndarray:
    return np.kron(m, I2)


def _on_b(m: np.ndarray) -> np.ndarray:
    return np.kron(I2, m)


def _basis_mat(basis: str) -> np.ndarray:
    return H2 if basis == "X" else I2


def project_qubit(state4: np.ndarray, who: str, basis: str, bit: int):
    """(probability, collapsed state) of one outcome of one qubit measurement."""
    rot = _on_a(_basis_mat(basis)) if who == "a" else _on_b(_basis_mat(basis))
    work = rot @ state4
    keep = np.zeros(4, dtype=complex)
    for k in range(4):
        kbit = (k >> 1) & 1 if who == "a" else k & 1
        if kbit == bit:
            keep[k] = work[k]
    p = float(np.sum(np.abs(keep) ** 2))
    if p == 0.0:
        return 0.0, keep
    keep = keep / np.sqrt(p)
    # back to the computational representation
    return p, rot.conj().T @ keep if basis == "X" else keep


def joint_outcome_prob(state4: np.ndarray, basis: str, a_bit: int, b_bit: int) -> float:
    """P(a_bit, b_bit) when both qubits are measured in the same basis."""
    rot = _on_a(_basis_mat(basis)) @ _on_b(_basis_mat(basis))
    work = rot @ state4
    return float(abs(work[2 * a_bit + b_bit]) ** 2)


def bell_outcome_probs(state4: np.ndarray) -> dict[str, float]:
    """Born probabilities of a single-DOF Bell measurement."""
    return {name: float(abs(np.vdot(BELL4[name], state4)) ** 2) for name in BELL4_ORDER}


def intercept_resend_first_check_error() -> float:
    """Exact P(A and B disagree) in one checked DOF under intercept-resend.

    Enumerates Eve's basis (uniform Z/X), her outcome, the legitimate check
    basis (uniform Z/X) and both parties' outcomes on the ideal pair.
    """
    err = 0.0
    for eve_basis in ("Z", "X"):
        for eve_bit in (0, 1):
            p_eve, after = project_qubit(BELL4["phi+"], "a", eve_basis, eve_bit)
            if p_eve == 0.0:
                continue
            for check_basis in ("Z", "X"):
                for a_bit in (0, 1):
                    for b_bit in (0, 1):
                        if a_bit == b_bit:
                            continue
                        p_out = joint_outcome_prob(after, check_basis, a_bit, b_bit)
                        err += 0.5 * p_eve * 0.5 * p_out
    return err


def intercept_resend_second_check_mismatch() -> float:
    """Exact P(Bell readout differs from the encoded state) in one attacked DOF.

    The return photon carries an arbitrary Bell state; Eve measures it in a
    uniform Z/X basis and forwards her outcome.  The answer is the same for
    all four Bell states, which this enumeration also verifies.
    """
    rates = []
    for encoded in BELL4_ORDER:
        miss = 0.0
        for eve_basis in ("Z", "X"):
            for eve_bit in (0, 1):
                p_eve, after = project_qubit(BELL4[encoded], "a", eve_basis, eve_bit)
                if p_eve == 0.0:
                    continue
                probs = bell_outcome_probs(after)
                miss += 0.5 * p_eve * (1.0 - probs[encoded])
        rates.append(miss)
    assert max(rates) - min(rates) < 1e-12
    return rates[0]


def intercept_resend_both_pass_mismatch() -> float:
    """One-DOF Bell mismatch when Eve measures both the outgoing and return photon."""
    total = 0.0
    for i in (1, 2, 3, 4):
        op = DOF_OP4[i]
        expected = _bell_name_of(_on_a(op) @ BELL4["phi+"])
        for b1 in ("Z", "X"):
            for bit1 in (0, 1):
                p1, mid = project_qubit(BELL4["phi+"], "a", b1, bit1)
                if p1 == 0.0:
                    continue
                coded = _on_a(op) @ mid
                for b2 in ("Z", "X"):
                    for bit2 in (0, 1):
                        p2, final = project_qubit(coded, "a", b2, bit2)
                        if p2 == 0.0:
                            continue
                        probs = bell_outcome_probs(final)
                        total += (0.5 * p1) * (0.5 * p2) * (1.0 - probs[expected])
    return total / 4.0


_OP_BITS = {1: (0, 0), 2: (0, 1), 3: (1, 0), 4: (1, 1)}  # op index -> (flip, phase)


def eve_two_pass_guess_accuracy() -> float:
    """Exact P(Eve names the right single-DOF coding op) from two interceptions.

    Her rule: when her bases match across the passes, the outcome XOR reveals
    the flip bit (Z basis) or the phase bit (X basis) of the op applied in
    between; every bit she did not learn is a fair coin.  The enumeration
    runs the actual quantum branches, so it also verifies the rule is sound.
    """
    acc = 0.0
    for i, (f, g) in _OP_BITS.items():
        for b1 in ("Z", "X"):
            for bit1 in (0, 1):
                p1, mid = project_qubit(BELL4["phi+"], "a", b1, bit1)
                if p1 == 0.0:
                    continue
                coded = _on_a(DOF_OP4[i]) @ mid
                for b2 in ("Z", "X"):
                    for bit2 in (0, 1):
                        p2, _ = project_qubit(coded, "a", b2, bit2)
                        if p2 == 0.0:
                            continue
                        xor = bit1 ^ bit2
                        if b1 == b2 == "Z":
                            p_correct = 0.5 if xor == f else 0.0
                        elif b1 == b2 == "X":
                            p_correct = 0.5 if xor == g else 0.0
                        else:
                            p_correct = 0.25
                        acc += 0.25 * (0.5 * p1) * (0.5 * p2) * p_correct
    return acc


def pauli_two_transit_bell_mismatch(p: float) -> float:
    """Exact per-DOF Bell-readout error after two independent noisy transits.

    The coding op between the transits permutes Bell labels bijectively, so
    only the composition of the two Pauli draws shifts the readout.
    """
    state = BELL4["phi+"]
    branches = [(1.0 - p, I2), (p / 3.0, PX), (p / 3.0, PY), (p / 3.0, PZ)]
    miss = 0.0
    for w1, s1 in branches:
        for w2, s2 in branches:
            if w1 == 0.0 or w2 == 0.0:
                continue
            noisy = _on_a(s2) @ (_on_a(s1) @ state)
            miss += w1 * w2 * (1.0 - bell_outcome_probs(noisy)["phi+"])
    return miss


def pauli_check_error(p: float) -> float:
    """Exact per-DOF correlation-check error under the symmetric Pauli channel."""
    state = BELL4["phi+"]
    branches = [(1.0 - p, I2), (p / 3.0, PX), (p / 3.0, PY), (p / 3.0, PZ)]
    err = 0.0
    for w, sigma in branches:
        if w == 0.0:
            continue
        noisy = _on_a(sigma) @ state
        for basis in ("Z", "X"):
            for a_bit in (0, 1):
                err += 0.5 * w * joint_outcome_prob(noisy, basis, a_bit, 1 - a_bit)
    return err


def _bell_name_of(state4: np.ndarray) -> str:
    probs = bell_outcome_probs(state4)
    for name, p in probs.items():
        if abs(p - 1.0) < 1e-12:
            return name
    raise AssertionError("state is not a Bell state")


# ---------------------------------------------------------------------------
# 16-dimensional constructions from explicit kets
# ---------------------------------------------------------------------------


def same_ray(a: np.ndarray, b: np.ndarray, atol: float = 1e-12) -> bool:
    """Whether two normalized states are one ray, equal up to a global phase: |<a|b>| = 1."""
    return abs(abs(np.vdot(a, b)) - 1.0) <= atol


_BELL_TERMS = {
    "phi+": (((0, 0), 1.0), ((1, 1), 1.0)),
    "phi-": (((0, 0), 1.0), ((1, 1), -1.0)),
    "psi+": (((0, 1), 1.0), ((1, 0), 1.0)),
    "psi-": (((0, 1), 1.0), ((1, 0), -1.0)),
}


def hyper_bell_16(pol_name: str, spa_name: str) -> np.ndarray:
    """Hyper-Bell state assembled ket by ket from the defining superpositions."""
    amp = np.zeros(16, dtype=complex)
    for (pa, pb), cp in _BELL_TERMS[pol_name]:
        for (sa, sb), cs in _BELL_TERMS[spa_name]:
            amp[8 * pa + 4 * pb + 2 * sa + sb] = cp * cs * 0.5
    return amp


def _dof_op_action(i: int, bit: int) -> tuple[int, float]:
    """Image of a basis ket under the single-DOF coding op: (new bit, sign)."""
    if i == 1:
        return bit, 1.0
    if i == 2:
        return bit, -1.0 if bit == 1 else 1.0
    if i == 3:
        return 1 - bit, 1.0
    if i == 4:
        return 1 - bit, -1.0 if bit == 1 else 1.0
    raise ValueError(i)


def apply_op_16(amp: np.ndarray, i: int, j: int) -> np.ndarray:
    """Apply U_ij to photon A of a 16-amplitude state, ket by ket."""
    out = np.zeros(16, dtype=complex)
    for k in range(16):
        if amp[k] == 0:
            continue
        pa, pb, sa, sb = (k >> 3) & 1, (k >> 2) & 1, (k >> 1) & 1, k & 1
        pa2, cpol = _dof_op_action(i, pa)
        sa2, cspa = _dof_op_action(j, sa)
        out[8 * pa2 + 4 * pb + 2 * sa2 + sb] += cpol * cspa * amp[k]
    return out


def source_fidelity_formula(r: float, phi: float) -> float:
    """Closed-form overlap probability of the imbalanced source with the ideal pair.

    |1 + r e^{i phi}|^2 / (2 (1 + r^2)), with 1 and r divided by max(1, r)
    so that a huge r cannot overflow.
    """
    big = max(1.0, r)
    a, b = 1.0 / big, r / big
    return (a * a + b * b + 2.0 * a * b * np.cos(phi)) / (2.0 * (a * a + b * b))


def source_16(r: float, phi: float) -> np.ndarray:
    """Source output assembled directly from its four product kets."""
    amp = np.zeros(16, dtype=complex)
    w = r * np.exp(1j * phi)
    for pa, pb in ((0, 0), (1, 1)):
        amp[8 * pa + 4 * pb + 0] = 1.0
        amp[8 * pa + 4 * pb + 3] = w
    return amp / np.linalg.norm(amp)


# ---------------------------------------------------------------------------
# Trojan probes and receiver screening, one signal at a time
# ---------------------------------------------------------------------------


def probe_offset(invisible: bool, tol: float, uniform) -> float:
    """Wavelength offset of one probe, from the zero-argument uniform draw ``uniform``.

    A probe sits on band and draws nothing, except an invisible one: its
    magnitude is tol * (2 - u) from a first uniform, at least the next float
    above tol, and a second uniform below 1/2 makes it positive.
    """
    if not invisible:
        return 0.0
    magnitude = max(tol * (2.0 - uniform()), math.nextafter(tol, math.inf))
    return magnitude if uniform() < 0.5 else -magnitude


def screen_signals(offsets, photons, filter_tol, pns, uniform) -> list[str]:
    """Each signal's verdict, "clean", "filtered_out" or "pns_alarm", in signal order.

    The filter (off when ``filter_tol`` is None) comes first: it removes a
    signal more than ``filter_tol`` off band.  Then the photon-number check
    (``pns`` None, "ideal" or "beamsplitter5050") reads each multi-photon
    signal left: the ideal one always alarms, and the 50/50 splitter takes
    one ``uniform()`` per such signal and alarms unless all n photons exit one
    port, with probability 2**(1-n).
    """
    verdicts = []
    for offset, count in zip(offsets, photons):
        if filter_tol is not None and abs(offset) > filter_tol:
            verdicts.append("filtered_out")
        elif pns is not None and count >= 2 and (
                pns == "ideal" or uniform() < 1.0 - 2.0 ** (1 - count)):
            verdicts.append("pns_alarm")
        else:
            verdicts.append("clean")
    return verdicts
