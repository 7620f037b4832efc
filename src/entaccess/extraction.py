"""Distributed EPR extraction from a shared GHZ state.

Each node holds one GHZ qubit. A bit sequence with exactly two ones marks
the winning pair; every other node (a loser) vacates the state with a
single Hadamard-basis measurement on its own qubit. The winners are then
left holding a Bell pair: |Phi+> when the losers' outcomes have even
parity, |Phi-> when odd, so one parity-conditioned Z repairs the pair.

Everything here is local: single-qubit gates and single-qubit measurements
only, plus the classical outcome bits. ``extract_epr`` takes a GHZ-shaped
state (two terms, on |0...0> and |1...1>), which keeps two terms through
every loser's measurement, and carries just those two amplitudes.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce
from itertools import cycle
from typing import Iterable

from .statevector import (
    _BRANCH_EPS,
    HADAMARD,
    PAULI_Z,
    RandomSource,
    StateVector,
    _index_with,
    _sample,
    _state,
    _zero_branch,
    apply_single,
    embed,
)

_SQ2 = 1.0 / math.sqrt(2.0)
BELL_PHI_PLUS = StateVector(2, {0b00: _SQ2, 0b11: _SQ2})
BELL_PHI_MINUS = StateVector(2, {0b00: _SQ2, 0b11: -_SQ2})


@dataclass(frozen=True)
class PSequence:
    """Per-node bit sequence selecting the extraction unitaries.

    Exactly two bits are 1; those positions mark the pair that keeps the
    entanglement. Bit i belongs to node N_i (the orchestrator is index 0).
    """

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        ones = self.bits.count(1)
        if self.bits.count(0) + ones != len(self.bits):
            raise ValueError("sequence entries must be bits")
        if ones != 2:
            raise ValueError("exactly two entries must be 1")

    def __len__(self) -> int:
        return len(self.bits)

    @classmethod
    def for_pair(cls, a: int, b: int, n: int) -> PSequence:
        """Sequence over nodes 0..n with ones at positions a and b."""
        if a == b:
            raise ValueError("pair members must differ")
        bits = [0] * (n + 1)
        for q in (a, b):
            if not 0 <= q <= n:
                raise ValueError(f"node index {q} out of range 0..{n}")
            bits[q] = 1
        return cls(tuple(bits))

    @property
    def pair(self) -> tuple[int, int]:
        """The two winner indices, ascending."""
        a = self.bits.index(1)
        return a, self.bits.index(1, a + 1)  # two ones by the invariant

    @property
    def losers(self) -> tuple[int, ...]:
        a, b = self.pair
        return (*range(a), *range(a + 1, b), *range(b + 1, len(self.bits)))


@dataclass(frozen=True)
class ExtractionResult:
    """Outcome of one extraction run.

    ``outcomes`` maps each loser index to its measurement bit; ``parity`` is
    their XOR. The pair qubits of ``state`` hold |Phi+> when parity is 0 and
    |Phi-> when 1 (losers stay in the register, pinned).
    """

    pair: tuple[int, int]
    outcomes: dict[int, int]
    parity: int
    state: StateVector


def build_p_sequence(winner: int, n: int) -> PSequence:
    """Pair the orchestrator (node 0) with the contention winner."""
    if not 1 <= winner <= n:
        raise ValueError(f"winner must be an end-node index in 1..{n}, got {winner}")
    return PSequence.for_pair(0, winner, n)


def apply_up(state: StateVector, p: PSequence) -> StateVector:
    """Apply every node's local extraction unitary to its own qubit."""
    if state.num_qubits != len(p):
        raise ValueError(
            f"state has {state.num_qubits} qubits but sequence covers {len(p)} nodes"
        )
    for qubit, bit in enumerate(p.bits):
        if bit == 0:
            state = apply_single(state, qubit, HADAMARD)
    return state


def loser_parity(outcomes: Iterable[int]) -> int:
    """XOR of the losers' Hadamard-basis outcome bits: 1 leaves the pair in |Phi->."""
    return reduce(operator.xor, outcomes, 0)


def _outcome_zero_walk(zero: complex, one: complex, limit: int) -> tuple[tuple, ...]:
    """Extraction's walk from amplitudes ``(zero, one)`` down the outcome-0 branches.

    One ``(p0, root, zero after)`` per loser step: the step's H, then its
    outcome-0 projection. That triple is the same whatever the outcomes,
    because HADAMARD's rows give ``m10 == m00`` and ``m11 == -m01``: the
    ``zero`` term is the same on both branches, ``one`` only changes sign,
    and each weight reads ``one`` only through ``abs``. The walk stops once
    it is back at its start, bitwise (``zero``'s parts and the size of
    ``one``'s), so it holds one period, which repeats; otherwise after
    ``limit`` steps, or at a step of weight at most ``_BRANCH_EPS``, which
    ``extract_epr`` raises at.
    """
    (m00, m01), _ = HADAMARD.matrix

    def key(zero: complex, one: complex) -> tuple[str, ...]:
        return zero.real.hex(), zero.imag.hex(), abs(one.real).hex(), abs(one.imag).hex()

    start = key(zero, one)
    walk = []
    while len(walk) < limit:
        zero0, one0 = m00 * zero, m01 * one
        p0 = 0.0 + abs(zero0) ** 2 + abs(one0) ** 2
        if p0 <= _BRANCH_EPS:
            walk.append((p0, None, None))
            break
        root = math.sqrt(p0)
        zero, one = zero0 / root, one0 / root
        walk.append((p0, root, zero))
        if key(zero, one) == start:
            break
    return tuple(walk)


_GHZ_AMP = complex(_SQ2)  # ``prepare_ghz``'s amplitude, on both terms
_PERIOD_LIMIT = 8
# Two steps, p0 0.4999999999999998 then 0.5. Only a walk shorter than its
# limit is known to be a period; a longer one could not be replayed past it.
_GHZ_WALK = _outcome_zero_walk(_GHZ_AMP, _GHZ_AMP, _PERIOD_LIMIT)


def extract_epr(ghz: StateVector, p: PSequence, rng: RandomSource) -> ExtractionResult:
    """Measure every loser qubit in the Hadamard basis, leaving the pair a Bell state.

    ``ghz`` must be GHZ-shaped, two terms on |0...0> and |1...1> (any
    amplitudes), else ValueError. After each loser's H the state has two
    terms, every unmeasured qubit 0 (``zero``) or every one 1 (``one``), so
    only their amplitudes are carried, through the float steps of H and then
    ``measure(state, loser, rng)``, one draw per loser in ascending order.
    Each step's p0, norm and ``zero`` do not depend on the outcomes, so they
    are replayed from ``_outcome_zero_walk``: the constant ``_GHZ_WALK`` for
    ``prepare_ghz``'s amplitudes (a signed zero in their imaginary parts
    leaves every step unchanged), else a walk built for this call. Only
    ``one`` is multiplied and divided per loser. Outcomes, parity and
    post-state equal that per-loser walk bit for bit (pinned in tests);
    ``apply_up`` followed by computational measurements gives the same
    statistics.
    """
    if ghz.num_qubits != len(p):
        raise ValueError(
            f"state has {ghz.num_qubits} qubits but sequence covers {len(p)} nodes"
        )
    num_qubits = ghz.num_qubits
    top = (1 << num_qubits) - 1
    support = ghz._support
    if support.keys() != {0, top}:
        raise ValueError("extract_epr needs a GHZ-shaped state: terms |0...0> and |1...1> only")
    (_, m01), (_, m11) = HADAMARD.matrix
    zero, one = support[0], support[top]
    losers = p.losers
    if zero == one == _GHZ_AMP and len(_GHZ_WALK) < _PERIOD_LIMIT:
        walk = _GHZ_WALK
    else:
        walk = _outcome_zero_walk(zero, one, len(losers))
    outcomes: dict[int, int] = {}
    for qubit, (p0, root, zero) in zip(losers, cycle(walk)):
        outcome = _sample(p0, rng)
        if p0 <= _BRANCH_EPS:  # either outcome's branch weighs p0
            raise _zero_branch(qubit, outcome, p0)
        one = (m11 if outcome else m01) * one / root
        outcomes[qubit] = outcome
    # the losers' outcome-1 bits, set in both terms
    pinned = _index_with(num_qubits, outcomes)
    pair = p.pair
    pair_bits = sum(1 << (num_qubits - 1 - q) for q in pair)
    terms = [(pinned, zero), (pinned | pair_bits, one)]
    if next(iter(support)) != 0:
        terms.reverse()  # keep the input's term order
    return ExtractionResult(
        pair=pair,
        outcomes=outcomes,
        parity=loser_parity(outcomes.values()),
        state=_state(num_qubits, dict(terms)),
    )


def parity_correct(state: StateVector, parity: int, qubit: int) -> StateVector:
    """Z on ``qubit`` iff the losers' outcome parity is odd; turns |Phi-> into |Phi+>."""
    if parity not in (0, 1):
        raise ValueError("parity must be a bit")
    if parity == 1:
        state = apply_single(state, qubit, PAULI_Z)
    return state


def bell_pair_reference(
    num_qubits: int, pair: tuple[int, int], pinned: dict[int, int], minus: bool = False
) -> StateVector:
    """Full-register state with |Phi+-> on ``pair`` and every other qubit pinned.

    Used to check extraction results, where losers sit collapsed in the
    register next to the extracted pair.
    """
    return embed(BELL_PHI_MINUS if minus else BELL_PHI_PLUS, pair, num_qubits, pinned)
