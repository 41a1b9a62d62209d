"""Imperfect hardware: source quality and channel noise.

The source model skews the spatial-mode half of the state by an amplitude
ratio r and relative phase phi; fidelity to the ideal pair follows
(1 + r^2 + 2 r cos phi) / (2 (1 + r^2)) exactly.  The channel applies an
independent Pauli error per DOF with probability p, which the correlation
check sees as a 2p/3 error rate (Z errors hide in the Z basis and X
errors in the X basis, so one third of the hits stay invisible).
"""

import numpy as np

from hyperqsdc import SourceParams, correlation_error_probs, source_fidelity
from hyperqsdc.harness import parse_run_config, run

print("fidelity vs phase, by amplitude ratio")
print("phi/pi   r=1.0    r=0.5    r=0.0")
for phi in np.linspace(0, np.pi, 5):
    row = [source_fidelity(SourceParams(r, phi)) for r in (1.0, 0.5, 0.0)]
    print(f"{phi / np.pi:5.2f}   " + "   ".join(f"{f:.4f}" for f in row))

# one block row per pair state; the mask reads both DOFs in the X basis
skew = SourceParams(0.5, np.pi).amplitudes[None]
[[_, spa_x]] = correlation_error_probs(skew, np.array([[True, True]]))
print(f"\nthe skew hides in Z checks and shows in X: spa X-basis error {spa_x:.3f}")

NOISY = """
[run]
sessions = 100
seed = 11
[protocol]
sample_fraction_first = 0.43
error_threshold = 1.0
[channel]
pauli_p_pol = {p}
pauli_p_spa = {p}
"""
print("\npauli p   check error (expect 2p/3)")
for p in (0.03, 0.06, 0.12, 0.3):
    stats = run(parse_run_config(NOISY.format(p=p)))
    rates = stats.first_check.rates()
    print(f"{p:7.2f}   pol {rates['error_rate_pol']:.4f}  spa {rates['error_rate_spa']:.4f}"
          f"   ({2 * p / 3:.4f})")
