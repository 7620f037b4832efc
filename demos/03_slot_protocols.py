"""Complete uplink and downlink slots, with the classical message trace.

A slot chains contention, extraction, and teleportation. In uplink the
winner transmits a payload qubit to the orchestrator; in downlink the
orchestrator selects the payload addressed to the winner and sends it the
other way. Either way, every end-node uploads exactly one two-bit report
(losers pad with random dummies), so the traffic's shape -- who sends how
many bits to whom -- is the same whoever won. Its values are not: in
downlink, a node that sees every message can narrow down the winner.
"""

import json

from entaccess import (
    RandomSource,
    SessionConfig,
    haar_qubit,
    run_downlink_slot,
    run_session,
    run_uplink_slot,
)


def show(report):
    out = report.outcome
    print(f"  {out.slot_type.value}: N_{out.transmitter} -> N_{out.receiver}"
          f" (winner N_{out.winner}, ancilla {report.ancilla})")
    for msg in report.messages:
        to = "broadcast" if msg.recipient is None else f"N_{msg.recipient}"
        print(f"    N_{msg.sender} -> {to}: {msg.payload}")
    print(f"    losers' parity {report.parity}, delivered fidelity {report.teleport_fidelity:.12f}")


n = 4
print(f"one uplink slot, n = {n}:")
show(run_uplink_slot(n, None, RandomSource(3)))

print(f"\none downlink slot, n = {n} (same seed, roles reversed):")
show(run_downlink_slot(n, None, RandomSource(3)))

print("\nexplicit payloads work too (here: a fixed state for every node):")
payloads = [haar_qubit(RandomSource(100 + i)) for i in range(n)]
report = run_uplink_slot(n, payloads, RandomSource(9))
print(f"  winner N_{report.outcome.winner} teleported its payload "
      f"with fidelity {report.teleport_fidelity:.12f}")

print("\na short session (alternating downlink/uplink, fresh states every slot):")
stats, records = run_session(SessionConfig(n=n, seed=11, trials=3))
for record in records:
    print(f"  slot {record['slot']:2d} {record['slot_type']:8s} winner N_{record['winner']}"
          f" fidelity {record['fidelity']:.6f}")
print("\nsession stats:")
print(json.dumps(stats.to_dict(), indent=2, sort_keys=True))
