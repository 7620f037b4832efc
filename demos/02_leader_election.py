"""Fair leader election with a W state, and how the orchestrator finds out.

Each of n end-nodes measures its own qubit of a shared W state: exactly one
reads 1 and becomes the slot winner, each with probability 1/n. The shared
state also carries ceil(log2 n) ancilla qubits held by the orchestrator;
a CNOT chain entangles them so they collapse to the winner's index, which
is how the orchestrator learns who won without a single classical message.
"""

from collections import Counter

from entaccess import (
    LeaderAwareLayout,
    RandomSource,
    circuit_text,
    decode_ancilla,
    fairness_experiment,
    run_contention,
)

n = 4
layout = LeaderAwareLayout(n)
print(f"n = {n} end-nodes, {layout.m} ancilla qubits at the orchestrator")
print("\ncontention circuit (exported gate list):")
print(circuit_text(n))

print("winner / ancilla correspondence over a few seeded rounds:")
for seed in range(6):
    winner, w_outcomes, ancilla = run_contention(n, RandomSource(seed))
    print(
        f"  seed {seed}: W outcomes {w_outcomes} -> winner N_{winner}, "
        f"ancilla readout {ancilla} decodes to N_{decode_ancilla(ancilla, n)}"
    )

print("\nfairness over 10000 rounds:")
result = fairness_experiment(n, trials=10_000, seed=42)
for node, count in sorted(result.histogram.items()):
    bar = "#" * (count // 100)
    print(f"  N_{node}: {count:5d} {bar}")
print(f"  chi-square {result.chi_square:.3f}, p-value {result.p_value:.3f}")

print("\nwinner counts for other network sizes (2000 rounds each):")
for size in (2, 3, 5, 8):
    hist = fairness_experiment(size, trials=2_000, seed=7).histogram
    print(f"  n={size}: {dict(sorted(Counter(hist).items()))}")
