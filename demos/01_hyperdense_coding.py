"""Four bits on one photon pair.

The pair starts in a product of two Bell states, one in polarization and
one in spatial mode.  Alice touches only her photon, picking one of four
rotations per degree of freedom, and the joint state lands on one of the
16 orthogonal hyper-Bell states.  Bob reads the label back with a single
16-outcome measurement, so each round trip of one photon moves 4 bits.
"""

import numpy as np

from hyperqsdc.hyperstate import BELL_BASIS, EncodingOp, bell_labels_table, encode

# the Bell states of one degree of freedom, by their label 0..3
BELL_NAMES = ("PHI_PLUS", "PHI_MINUS", "PSI_PLUS", "PSI_MINUS")

rng = np.random.default_rng(1)


def send(codes: np.ndarray) -> np.ndarray:
    """Bob's labels 4 * pol + spa for ideal pairs on which Alice applied op code codes[k]."""
    pairs = encode(np.tile(BELL_BASIS[0], (len(codes), 1)), codes)   # Alice's photon only
    return bell_labels_table(pairs, np.arange(len(codes)), rng.random(len(codes)))  # Bob's readout


ops = [EncodingOp(i, j) for i in range(1, 5) for j in range(1, 5)]
labels = send(np.array([op.code for op in ops]))
print("op   bits   pol Bell   spa Bell")
for op, label in zip(ops, labels):
    assert label == op.code  # the label read back is the op code
    print(f"U_{op.i}{op.j}  {op.code:04b}   {BELL_NAMES[label >> 2]:9}  {BELL_NAMES[label & 3]}")

message = "1011000111100100"
print(f"\nsending {message!r} takes {len(message) // 4} pairs:")
chunks = np.array([int(message[k : k + 4], 2) for k in range(0, len(message), 4)])
decoded = "".join(f"{label:04b}" for label in send(chunks))
print("decoded:", decoded)
assert decoded == message
