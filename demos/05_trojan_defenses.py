"""Trojan probes against the encoder, and the receiver-side hardware answer.

These attacks never touch the legitimate pair, so the correlation checks
stay silent by construction; catching them is the job of a wavelength
filter and a photon-number check at the receiving port.  The table shows
the fraction of probes caught per defense setup over full protocol runs.
"""

from hyperqsdc.harness import parse_run_config, run

SCENARIO = """
[run]
sessions = 30
seed = 9
[protocol]
n_pairs = 64
[adversary]
kind = {kind}
passes = forward
[defense]
filter_enabled = {filt}
pns_enabled = {pns}
pns_kind = {pns_kind}
"""


def caught(kind, filt="false", pns="false", pns_kind="ideal"):
    rc = parse_run_config(SCENARIO.format(kind=kind, filt=filt, pns=pns, pns_kind=pns_kind))
    stats = run(rc)
    total = stats.trojan_signals
    assert stats.accepted == 30, "probes alone never trip the quantum checks"
    assert stats.first_check.n_mismatched == 0
    return (stats.trojan_filtered + stats.pns_alarms) / total


rows = [
    ("multiphoton", "no defenses", caught("trojan_multiphoton")),
    ("multiphoton", "ideal PNS", caught("trojan_multiphoton", pns="true")),
    ("multiphoton", "50/50 splitter", caught("trojan_multiphoton", pns="true", pns_kind="beamsplitter5050")),
    ("invisible", "no defenses", caught("trojan_invisible")),
    ("invisible", "wavelength filter", caught("trojan_invisible", filt="true")),
    ("delayed", "filter + ideal PNS", caught("trojan_delay", filt="true", pns="true")),
]
print("probe         defense              caught")
for probe, defense, rate in rows:
    print(f"{probe:<12}  {defense:<19}  {rate:.3f}")
