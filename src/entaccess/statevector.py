"""Exact state-vector simulation that stores only the support of each state.

A state is a dict from basis index (a Python int, so the register width is
unbounded) to its nonzero complex amplitude. Every primitive works on that
support, so its cost follows the number of nonzero amplitudes rather than
2^n: a GHZ state has 2 terms and a W state n, whatever the register width.
A dense vector is just the full-support case.

Conventions:
- Qubit 0 is the leftmost label in ket notation, i.e. the most significant
  bit of a basis-state index.
- Measured qubits stay in the register, pinned to their outcome, so indices
  remain stable across a protocol run.
- All operations are pure: they return new StateVector instances.
- Only amplitudes that are exactly 0 leave the support. Float noise (say a
  1e-17 weight on a branch that is really impossible) stays, and the
  measurement rule ``_BRANCH_EPS`` deals with it exactly as a dense vector
  would.
- Public constructors validate their input, norm included; the results of
  gates, measurements and tensor products skip that check.
- Dense views (``amplitudes``, ``probabilities``, ``marginal_distribution``)
  refuse registers beyond ``MAX_DENSE_QUBITS`` before allocating anything.
"""

from __future__ import annotations

import math
import operator
from dataclasses import FrozenInstanceError, dataclass
from enum import Enum
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

NORM_TOL = 1e-10      # norm / fidelity assertions
UNITARY_TOL = 1e-12   # constant gate matrices
_BRANCH_EPS = 1e-12   # probability below which a branch is treated as impossible
MAX_DENSE_QUBITS = 24  # dense views allocate 2^n entries: 256 MiB of complex at 24


class Basis(Enum):
    COMPUTATIONAL = "computational"
    HADAMARD = "hadamard"


@dataclass(frozen=True, eq=False)
class Gate:
    """A single-qubit gate: a name plus its 2x2 unitary matrix."""

    name: str
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"gate matrix must be 2x2, got {m.shape}")
        if not np.allclose(m.conj().T @ m, np.eye(2), atol=UNITARY_TOL):
            raise ValueError(f"gate {self.name!r} is not unitary")
        object.__setattr__(self, "matrix", m)


_SQ2 = 1.0 / math.sqrt(2.0)
IDENTITY = Gate("I", np.eye(2))
HADAMARD = Gate("H", np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]]))
PAULI_X = Gate("X", np.array([[0.0, 1.0], [1.0, 0.0]]))
PAULI_Z = Gate("Z", np.array([[1.0, 0.0], [0.0, -1.0]]))


def _check_dense(num_qubits: int, what: str) -> None:
    if num_qubits > MAX_DENSE_QUBITS:
        raise ValueError(
            f"{what} over {num_qubits} qubits would hold 2^{num_qubits} entries; "
            f"dense views are limited to {MAX_DENSE_QUBITS} qubits"
        )


class StateVector:
    """Pure state over ``num_qubits`` labeled qubits (register indices 0..n-1).

    ``StateVector(n, amplitudes)`` takes a dense vector of 2^n amplitudes;
    ``StateVector.from_support(n, {index: amplitude})`` takes the support.
    Both validate, through ``__post_init__``, and store the support only.
    """

    __slots__ = ("num_qubits", "_support")

    def __init__(self, num_qubits: int, amplitudes) -> None:
        object.__setattr__(self, "num_qubits", num_qubits)
        object.__setattr__(self, "_support", amplitudes)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Validate the constructor input and replace it by the support dict."""
        n = self.num_qubits
        if n < 1:
            raise ValueError("state needs at least one qubit")
        given = self._support
        if isinstance(given, Mapping):
            support = {_basis_index(i): complex(a) for i, a in given.items() if a != 0}
            for i in support:
                if not 0 <= i < 1 << n:
                    raise ValueError(f"basis index {i} out of range for {n} qubits")
        else:
            amps = np.asarray(given, dtype=complex).reshape(-1)
            if amps.shape[0] != 1 << n:
                raise ValueError(f"expected {1 << n} amplitudes, got {amps.shape[0]}")
            nonzero = np.flatnonzero(amps)
            support = dict(zip(nonzero.tolist(), amps[nonzero].tolist()))
        norm = sum(abs(a) ** 2 for a in support.values())
        if not abs(norm - 1.0) <= NORM_TOL:  # also rejects a NaN norm
            raise ValueError(f"state not normalized: sum |amp|^2 = {norm!r}")
        object.__setattr__(self, "_support", support)

    @classmethod
    def from_support(cls, num_qubits: int, support: Mapping[int, complex]) -> StateVector:
        """State from its nonzero amplitudes, keyed by basis index."""
        return cls(num_qubits, dict(support))

    @classmethod
    def basis_state(cls, bits: Sequence[int]) -> StateVector:
        """Computational basis state |bits[0] bits[1] ...> (qubit 0 leftmost)."""
        return cls.from_support(len(bits), {_bits_to_index(bits): 1.0})

    @classmethod
    def qubit(cls, alpha: complex, beta: complex) -> StateVector:
        """Single-qubit state alpha|0> + beta|1>; (alpha, beta) must be normalized."""
        return cls.from_support(1, {0: alpha, 1: beta})

    @property
    def support(self) -> Mapping[int, complex]:
        """Read-only view of the nonzero amplitudes, keyed by basis index."""
        return MappingProxyType(self._support)

    @property
    def amplitudes(self) -> np.ndarray:
        """Dense, read-only vector of all 2^n amplitudes, built on each access."""
        _check_dense(self.num_qubits, "dense amplitude vector")
        amps = np.zeros(1 << self.num_qubits, dtype=complex)
        amps[np.fromiter(self._support, dtype=np.int64)] = list(self._support.values())
        amps.flags.writeable = False
        return amps

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def _mask(self, qubit: int) -> int:
        """The index bit that holds ``qubit``."""
        if not 0 <= qubit < self.num_qubits:
            raise IndexError(f"qubit {qubit} out of range for {self.num_qubits} qubits")
        return 1 << (self.num_qubits - 1 - qubit)

    def __setattr__(self, name, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return _state, (self.num_qubits, self._support)

    def __eq__(self, other) -> bool:
        if not isinstance(other, StateVector):
            return NotImplemented
        return self.num_qubits == other.num_qubits and self._support == other._support

    __hash__ = None

    def __repr__(self) -> str:
        return f"StateVector(num_qubits={self.num_qubits})"


def _basis_index(i) -> int:
    try:
        return operator.index(i)
    except TypeError:
        raise ValueError(f"basis index {i!r} is not an integer") from None


def _state(num_qubits: int, support: dict[int, complex]) -> StateVector:
    """Unchecked construction for internal results that are normalized by design."""
    state = object.__new__(StateVector)
    object.__setattr__(state, "num_qubits", num_qubits)
    object.__setattr__(state, "_support", support)
    return state


@dataclass(frozen=True)
class MeasurementRecord:
    """One projective measurement: which qubit, which basis, what came out."""

    qubit: int
    basis: Basis
    outcome: int
    probability: float


class RandomSource:
    """Deterministic stream of uniform reals; identical seed, identical stream."""

    def __init__(self, seed: int):
        self.check_seed(seed)
        self.seed = seed
        self._gen = np.random.default_rng(seed)

    @staticmethod
    def check_seed(seed: int) -> None:
        """Raise ValueError unless ``seed`` is a valid seed, i.e. non-negative."""
        if seed < 0:
            raise ValueError("seed must be a non-negative integer")

    def random(self) -> float:
        """Next uniform real in [0, 1)."""
        return float(self._gen.random())

    def bit(self) -> int:
        """Next fair random bit, derived from the uniform stream."""
        return 1 if self.random() < 0.5 else 0


def _bits_to_index(bits: Sequence[int]) -> int:
    index = 0
    for b in bits:
        if b not in (0, 1):
            raise ValueError(f"bit values must be 0 or 1, got {b!r}")
        index = (index << 1) | b
    return index


def tensor_product(a: StateVector, b: StateVector) -> StateVector:
    """Joint register with a's qubits first (most significant index bits)."""
    shift = b.num_qubits
    support = {}
    for i, x in a._support.items():
        for j, y in b._support.items():
            amp = x * y
            if amp:
                support[(i << shift) | j] = amp
    return _state(a.num_qubits + b.num_qubits, support)


def product_state(qubit_states: Sequence[Sequence[complex]]) -> StateVector:
    """Product state from per-qubit (alpha, beta) pairs, qubit 0 first."""
    support = {0: 1.0}
    for pair in qubit_states:
        alpha, beta = np.asarray(pair, dtype=complex).reshape(2).tolist()
        grown = {}
        for i, amp in support.items():
            if alpha:
                grown[i << 1] = amp * alpha
            if beta:
                grown[(i << 1) | 1] = amp * beta
        support = grown
    return StateVector.from_support(len(qubit_states), support)


def apply_single(state: StateVector, qubit: int, gate: Gate) -> StateVector:
    """Apply a 2x2 gate to one qubit, pairing each index with its partner across the bit."""
    bit = state._mask(qubit)
    (m00, m01), (m10, m11) = gate.matrix.tolist()
    old = state._support
    support = {}
    for i, amp in old.items():
        if i & bit:
            low = i ^ bit
            if low in old:
                continue  # handled with its partner
            new0, new1 = m01 * amp, m11 * amp
        else:
            low = i
            partner = old.get(i | bit)
            if partner is None:
                new0, new1 = m00 * amp, m10 * amp
            else:
                new0, new1 = m00 * amp + m01 * partner, m10 * amp + m11 * partner
        if new0:
            support[low] = new0
        if new1:
            support[low | bit] = new1
    return _state(state.num_qubits, support)


def apply_cnot(state: StateVector, control: int, target: int) -> StateVector:
    """Flip ``target`` on basis states where ``control`` is 1."""
    if control == target:
        raise ValueError("control and target must differ")
    c_bit = state._mask(control)
    t_bit = state._mask(target)
    support = {(i ^ t_bit if i & c_bit else i): amp for i, amp in state._support.items()}
    return _state(state.num_qubits, support)


def _branch_probability(state: StateVector, qubit: int, outcome: int) -> float:
    bit = state._mask(qubit)
    want = bit if outcome else 0
    return float(sum(abs(a) ** 2 for i, a in state._support.items() if i & bit == want))


def _project(state: StateVector, qubit: int, outcome: int) -> tuple[float, StateVector]:
    """Collapse ``qubit`` onto ``outcome``; errors on an impossible branch."""
    prob = _branch_probability(state, qubit, outcome)
    if prob <= _BRANCH_EPS:
        raise ValueError(
            f"zero-probability branch: qubit {qubit} -> {outcome} (p = {prob!r})"
        )
    bit = state._mask(qubit)
    want = bit if outcome else 0
    root = math.sqrt(prob)
    support = {i: a / root for i, a in state._support.items() if i & bit == want}
    return prob, _state(state.num_qubits, support)


def measure(
    state: StateVector, qubit: int, basis: Basis, rng: RandomSource
) -> tuple[MeasurementRecord, StateVector]:
    """Projective measurement of one qubit; the qubit stays in the register.

    Hadamard-basis measurement applies H to the qubit and then measures
    computationally; the returned post-state carries that H.
    """
    if basis is Basis.HADAMARD:
        state = apply_single(state, qubit, HADAMARD)
    p0 = _branch_probability(state, qubit, 0)
    outcome = 0 if rng.random() < p0 else 1
    # float noise can leave a ~1e-17 weight on a branch that is really
    # impossible; never sample it
    if (p0 if outcome == 0 else 1.0 - p0) <= _BRANCH_EPS:
        outcome = 1 - outcome
    prob, post = _project(state, qubit, outcome)
    return MeasurementRecord(qubit, basis, outcome, prob), post


def enumerate_branches(
    state: StateVector, qubits: Sequence[int], bases: Sequence[Basis]
) -> list[tuple[tuple[int, ...], float, StateVector]]:
    """All joint measurement branches over ``qubits``, zero-probability ones omitted.

    Returns (outcome bit-vector, probability, post-state) triples; the
    probabilities of the returned branches sum to 1.
    """
    if len(set(qubits)) != len(qubits):
        raise ValueError("qubits must be distinct")
    if len(bases) != len(qubits):
        raise ValueError("one basis per measured qubit required")
    branches: list[tuple[tuple[int, ...], float, StateVector]] = [((), 1.0, state)]
    for qubit, basis in zip(qubits, bases):
        expanded = []
        for outcomes, prob, st in branches:
            work = apply_single(st, qubit, HADAMARD) if basis is Basis.HADAMARD else st
            for outcome in (0, 1):
                p = _branch_probability(work, qubit, outcome)
                if p <= _BRANCH_EPS:
                    continue
                _, post = _project(work, qubit, outcome)
                expanded.append((outcomes + (outcome,), prob * p, post))
        branches = expanded
    return branches


def fidelity(state: StateVector, reference: StateVector) -> float:
    """Squared overlap |<reference|state>|^2, summed over the shared support."""
    if state.num_qubits != reference.num_qubits:
        raise ValueError(
            f"dimension mismatch: {state.num_qubits} vs {reference.num_qubits} qubits"
        )
    ref = reference._support
    overlap = sum(ref[i].conjugate() * a for i, a in state._support.items() if i in ref)
    return float(abs(overlap) ** 2)


def marginal_distribution(
    state: StateVector, qubits: Sequence[int]
) -> dict[tuple[int, ...], float]:
    """Computational-basis outcome probabilities on a subset of qubits.

    Every outcome appears, in lexicographic order, zero-probability ones too.
    """
    if len(set(qubits)) != len(qubits):
        raise ValueError("qubits must be distinct")
    masks = [state._mask(q) for q in qubits]
    _check_dense(len(qubits), "marginal table")
    k = len(qubits)
    table = {
        tuple((flat >> (k - 1 - j)) & 1 for j in range(k)): 0.0 for flat in range(1 << k)
    }
    for i, a in state._support.items():
        table[tuple(1 if i & m else 0 for m in masks)] += abs(a) ** 2
    return table


def haar_qubit(rng: RandomSource) -> StateVector:
    """Single-qubit state drawn uniformly from the Bloch sphere."""
    cos_theta = 2.0 * rng.random() - 1.0
    phi = 2.0 * math.pi * rng.random()
    half = 0.5 * math.acos(cos_theta)
    return StateVector.qubit(math.cos(half), np.exp(1j * phi) * math.sin(half))
