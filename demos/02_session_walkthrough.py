"""One full session, narrated from the transcript.

A session run alone is a group of one: its generator, handed over once at
``prepare_group`` in a ``DrawSource``, feeds every phase, the random message that
``encode_group`` writes included.  The phases only fill the group's arrays: the message
is read back from ``group.sent``, and ``transcript_lines`` writes the session's events as
JSONL text, which the demo reads back one ``json.loads`` per line.
"""

import json

import numpy as np

from hyperqsdc import ChannelParams, ProtocolConfig, SourceParams
from hyperqsdc.draws import DrawSource
from hyperqsdc.protocol import (
    decode_group,
    encode_group,
    first_check_group,
    prepare_group,
    transcript_lines,
    transmit_forward_group,
    transmit_return_group,
)

rng = np.random.default_rng(42)
cfg = ProtocolConfig(n_pairs=24, sample_fraction_first=0.2, sample_fraction_second=0.2)
channel = ChannelParams()  # quiet line, no loss

group = prepare_group(cfg, SourceParams(1.0, 0.0), DrawSource([rng]))
transmit_forward_group(group, channel)
first_check_group(group, cfg)
encode_group(group, cfg)  # Alice draws a random message and writes it in
transmit_return_group(group, channel)
decode_group(group, cfg)

sent = group.sent[0]
message = "".join(f"{chunk:04b}" for chunk in sent[sent >= 0])
transcript = [json.loads(line) for line in transcript_lines(group, [0], [0]).splitlines()]
for event in transcript:
    del event["session"]  # every event is session 0's
events = {event["event"]: event for event in transcript}
first, second = events["first_check"], events["second_check"]
print(f"first check: {first['n_checked']} pairs sampled, "
      f"pol rate {first['error_rate_pol']:.2f}, spa rate {first['error_rate_spa']:.2f} "
      f"-> {first['verdict']}")
print(f"  sampled positions {first['positions']}")
print(f"capacity after sampling: {4 * len(events['encode']['message_positions'])} bits")
print(f"message sent: {message}")
print(f"second check: {second['n_checked']} hidden samples -> {second['verdict']}")
print(f"  hidden at positions {second['sample_positions']}")
decoded = events["result"]["message"]
assert decoded == message
print(f"message intact: {decoded == message}")

print("\ntranscript:")
for event in transcript:
    keys = [k for k in event if k not in ("event", "phase", "to_phase")]
    print(f"  {event['phase']:>12} {event['event']:<12} carries {', '.join(keys)}")
