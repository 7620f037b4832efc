"""Dense amplitude vectors as simulator states, for tests that write states densely.

``StateVector`` takes only its support; ``dense_state`` is the one place a
test turns 2^n amplitudes into that support. It goes through the
validating constructor, so the state is checked as any public one is.
"""

import numpy as np

from entaccess.statevector import StateVector


def dense_state(num_qubits: int, amps) -> StateVector:
    """The ``num_qubits``-qubit state whose 2^n amplitudes are ``amps``."""
    amps = np.asarray(amps, dtype=complex).reshape(-1)
    assert amps.shape[0] == 1 << num_qubits, f"{amps.shape[0]} amplitudes for {num_qubits} qubits"
    nonzero = np.flatnonzero(amps)
    return StateVector(num_qubits, dict(zip(nonzero.tolist(), amps[nonzero].tolist())))
