"""Why the intercept-resend attack loses.

Eve measures both degrees of freedom of every passing photon and forwards
her collapsed copy.  A sampled pair then disagrees with probability 7/16
in the first correlation check, and a hidden second-check pair survives
the Bell comparison with probability only 9/64, so the chance of slipping
past both checks decays like (9/16)^n1 * (9/64)^n2.  Even a lucky Eve
learns at most one of the two bits per degree of freedom, leaving her
close to blind guessing on the 4-bit ops.
"""

import math

from hyperqsdc.harness import parse_run_config, run

SCENARIO = """
[run]
sessions = 400
[protocol]
n_pairs = {n_pairs}
sample_fraction_first = {f1}
error_threshold = 0.05
[adversary]
kind = intercept_resend
"""

print("samples (n1+n2)   caught at 1st   caught at 2nd   missed   predicted missed")
for n_pairs, f1 in ((44, 0.05), (64, 0.1), (112, 0.1)):
    rc = parse_run_config(SCENARIO.format(n_pairs=n_pairs, f1=f1))
    n1 = math.floor(f1 * n_pairs + 0.5)
    n2 = math.floor(rc.protocol.sample_fraction_second * n_pairs + 0.5)
    stats, _ = run(rc, 3)
    at_first = stats.abort_reasons["first_check_fail"]
    at_second = stats.abort_reasons["second_check_fail"]
    missed = stats.accepted
    predicted = (9 / 16) ** n1 * (9 / 64) ** n2 * rc.sessions
    print(f"{n1:>7} + {n2:<7} {at_first:>14} {at_second:>15} {missed:>8}   {predicted:.2g} of {rc.sessions}")

# what Eve actually learns when the checks are waved through
loose = parse_run_config(SCENARIO.format(n_pairs=112, f1=0.05).replace(
    "error_threshold = 0.05", "error_threshold = 1.0"))
stats, _ = run(loose, 5)
print(f"\nEve's 4-bit guess accuracy with both passes tapped: "
      f"{stats.eve_bell_guess_accuracy:.3f}  (blind 1/16 = 0.0625, best possible 9/64 = 0.141)")
