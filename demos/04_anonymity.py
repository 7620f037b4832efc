"""Why losing nodes cannot tell who won.

Enumerate every measurement branch of a slot and condition on everything a
losing node observes: its own contention outcome (0), the bit it measured
off the GHZ state, the dummy it sent, and -- in downlink -- the three
broadcast bits. The posterior over the winner identity stays uniform over
the other end-nodes in every single case, so one loser alone learns nothing.
That is the only observer checked here: in downlink, anyone who sees every
message can narrow down the winner.
"""

from entaccess import SlotType, anonymity_experiment, enumerate_slot_branches

n = 3
print(f"exhaustive anonymity check, n = {n}")

for slot_type in (SlotType.UPLINK, SlotType.DOWNLINK):
    branches = enumerate_slot_branches(n, slot_type)
    print(f"\n{slot_type.value}: {len(branches)} measurement branches, "
          f"total probability {sum(b.probability for b in branches):.12f}")

    # Posterior over the winner given one loser's g bit, built by hand here
    # for loser N_1 (the library's experiment covers every loser and view).
    for g_bit in (0, 1):
        weights = {}
        for b in branches:
            if 1 in b.loser_outcomes and b.loser_outcomes[1] == g_bit:
                weights[b.winner] = weights.get(b.winner, 0.0) + b.probability
        total = sum(weights.values())
        posterior = {f"N_{k}": round(v / total, 6) for k, v in sorted(weights.items())}
        print(f"  N_1 saw g = {g_bit}: posterior over winner = {posterior}")

print("\nfull report (every loser, every complete local view):")
for size in (2, 3, 4):
    report = anonymity_experiment(size)
    for slot_type, sa in report.per_slot.items():
        note = " (vacuous: only one other node)" if sa.vacuous else ""
        print(f"  n={size} {slot_type.value:8s}: {sa.view_count:3d} distinct views, "
              f"max deviation from uniform {sa.max_deviation:.3e}{note}")
