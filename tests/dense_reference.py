"""Minimal dense state-vector reference for cross-checking the simulator.

A state here is a plain numpy array of 2^n amplitudes, qubit 0 the most
significant index bit. Single-qubit gates are full 2^n x 2^n Kronecker
products, CNOT is an index permutation and projection is an index mask. It
shares no code with ``entaccess.statevector``, whose support-only primitives
it checks; it is slow and only meant for a few qubits.
"""

from __future__ import annotations

from functools import lru_cache, reduce

import numpy as np

SQ2 = 1.0 / np.sqrt(2.0)
H = np.array([[SQ2, SQ2], [SQ2, -SQ2]], dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def bits(n: int, qubit: int) -> np.ndarray:
    """Value of ``qubit`` in every basis index of an n-qubit register."""
    return (np.arange(1 << n) >> (n - 1 - qubit)) & 1


@lru_cache(maxsize=32)
def _lifted(n: int, qubit: int, matrix: tuple) -> np.ndarray:
    m = np.array(matrix, dtype=complex).reshape(2, 2)
    return reduce(np.kron, [m if q == qubit else np.eye(2) for q in range(n)])


def single(amps: np.ndarray, n: int, qubit: int, matrix: np.ndarray) -> np.ndarray:
    return _lifted(n, qubit, tuple(np.asarray(matrix, dtype=complex).ravel())) @ amps


def cnot(amps: np.ndarray, n: int, control: int, target: int) -> np.ndarray:
    index = np.arange(1 << n)
    moved = np.where(bits(n, control) == 1, index ^ (1 << (n - 1 - target)), index)
    out = np.empty_like(amps)
    out[moved] = amps
    return out


def project(amps: np.ndarray, n: int, qubit: int, outcome: int) -> tuple[float, np.ndarray]:
    """(branch probability, normalized post-state) of reading ``outcome`` on ``qubit``."""
    keep = bits(n, qubit) == outcome
    prob = float(np.sum(np.abs(amps[keep]) ** 2))
    return prob, np.where(keep, amps, 0) / np.sqrt(prob)


def fidelity(state: np.ndarray, reference: np.ndarray) -> float:
    return float(abs(np.vdot(reference, state)) ** 2)


def marginal(amps: np.ndarray, n: int, qubits: list[int]) -> dict[tuple[int, ...], float]:
    table: dict[tuple[int, ...], float] = {}
    columns = [bits(n, q) for q in qubits]
    for index, p in enumerate(np.abs(amps) ** 2):
        key = tuple(int(c[index]) for c in columns)
        table[key] = table.get(key, 0.0) + float(p)
    return table
