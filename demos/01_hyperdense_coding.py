"""Four bits on one photon pair.

The pair starts in a product of two Bell states, one in polarization and
one in spatial mode.  Alice touches only her photon, picking one of four
rotations per degree of freedom, and the joint state lands on one of the
16 orthogonal hyper-Bell states.  Bob reads the label back with a single
16-outcome measurement, so each round trip of one photon moves 4 bits.
"""

import numpy as np

from hyperqsdc import (
    Bell,
    BellIndex,
    EncodingOp,
    apply_encoding,
    bell_from_op,
    chbsa,
    make_hyper_bell,
    op_from_bell,
)

rng = np.random.default_rng(1)
ideal = make_hyper_bell(BellIndex(Bell.PHI_PLUS, Bell.PHI_PLUS))
bits_of = {EncodingOp.from_code(code): f"{code:04b}" for code in range(16)}

print("op   bits   pol Bell   spa Bell")
for i in range(1, 5):
    for j in range(1, 5):
        op = EncodingOp(i, j)
        label = chbsa(apply_encoding(ideal, op), rng)
        assert label == bell_from_op(op)
        print(f"U_{i}{j}  {bits_of[op]}   {label.p.name:9}  {label.s.name}")

message = "1011000111100100"
print(f"\nsending {message!r} takes {len(message) // 4} pairs:")
inverse = {bits: op for op, bits in bits_of.items()}
decoded = []
for k in range(0, len(message), 4):
    chunk = message[k : k + 4]
    travelling = apply_encoding(ideal, inverse[chunk])   # Alice's photon only
    label = chbsa(travelling, rng)                       # Bob's joint readout
    decoded.append(bits_of[op_from_bell(label)])
print("decoded:", "".join(decoded))
assert "".join(decoded) == message
