"""State builders and views that only tests need.

``StateVector`` takes only its support; ``dense_state`` is the one place a
test turns 2^n amplitudes into that support, and ``basis_state`` the one
place it turns a bit string into a basis state. Both go through the
validating constructor, so each state is checked as any public one is.
``marginal_distribution`` tabulates outcome probabilities from the public
support view.
"""

import itertools

import numpy as np

from entaccess.statevector import MAX_DENSE_QUBITS, StateVector


def dense_state(num_qubits: int, amps) -> StateVector:
    """The ``num_qubits``-qubit state whose 2^n amplitudes are ``amps``."""
    amps = np.asarray(amps, dtype=complex).reshape(-1)
    assert amps.shape[0] == 1 << num_qubits, f"{amps.shape[0]} amplitudes for {num_qubits} qubits"
    nonzero = np.flatnonzero(amps)
    return StateVector(num_qubits, dict(zip(nonzero.tolist(), amps[nonzero].tolist())))


def basis_state(bits) -> StateVector:
    """Computational basis state |bits[0] bits[1] ...> (qubit 0 leftmost)."""
    assert set(bits) <= {0, 1}, f"bit values must be 0 or 1, got {bits!r}"
    return StateVector(len(bits), {int("".join(map(str, bits)), 2): 1.0})


def marginal_distribution(state: StateVector, qubits) -> dict[tuple[int, ...], float]:
    """Computational-basis outcome probabilities on a subset of qubits.

    Every outcome appears, in lexicographic order, zero-probability ones too.
    """
    k = len(qubits)
    assert len(set(qubits)) == k, "qubits must be distinct"
    assert all(0 <= q < state.num_qubits for q in qubits), f"qubits {qubits} out of range"
    if k > MAX_DENSE_QUBITS:
        raise ValueError(
            f"marginal table over {k} qubits would hold 2^{k} entries; "
            f"dense views are limited to {MAX_DENSE_QUBITS} qubits"
        )
    shifts = [state.num_qubits - 1 - q for q in qubits]
    table = dict.fromkeys(itertools.product((0, 1), repeat=k), 0.0)
    for i, a in state.support.items():
        table[tuple((i >> s) & 1 for s in shifts)] += abs(a) ** 2
    return table
