"""Distributed EPR extraction from a shared GHZ state.

Each node holds one GHZ qubit. A bit sequence with exactly two ones marks
the winning pair; every other node (a loser) vacates the state with a
single Hadamard-basis measurement on its own qubit. The winners are then
left holding a Bell pair: |Phi+> when the losers' outcomes have even
parity, |Phi-> when odd, so one parity-conditioned Z repairs the pair.

Everything here is local: single-qubit gates and single-qubit measurements
only, plus the classical outcome bits. ``extract_epr`` takes the shared
state ``prepare_ghz`` builds, (|0...0> + |1...1>)/sqrt(2), which keeps two
terms through every loser's measurement, and carries just those two
amplitudes along one walk computed at import.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce
from itertools import cycle
from typing import Iterable, NamedTuple

from .statevector import (
    _BRANCH_EPS,
    _SQ2,
    HADAMARD,
    PAULI_Z,
    RandomSource,
    StateVector,
    _index_with,
    _sample,
    _state,
    apply_single,
    embed,
)

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


class ExtractionResult(NamedTuple):
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


def _ghz_walk() -> tuple[tuple[float, float, complex], ...]:
    """Extraction's walk from ``prepare_ghz``'s amplitudes down the outcome-0 branches.

    One ``(p0, root, zero after)`` per loser step: the step's H, then its
    outcome-0 projection. That triple is the same whatever the outcomes,
    because HADAMARD's rows give ``m10 == m00`` and ``m11 == -m01``: the
    ``zero`` term is the same on both branches, ``one`` only changes sign,
    and each weight reads ``one`` only through ``abs``. From 1/sqrt(2) on
    both terms the walk is back at its start, bitwise, after two steps, with
    p0 0.4999999999999998 then 0.5 (pinned in tests), so those two steps
    repeat for every loser.
    """
    (m00, m01), _ = HADAMARD.matrix
    zero = one = complex(_SQ2)
    walk = []
    for _ in range(2):
        zero0, one0 = m00 * zero, m01 * one
        p0 = 0.0 + abs(zero0) ** 2 + abs(one0) ** 2
        root = math.sqrt(p0)
        zero, one = zero0 / root, one0 / root
        walk.append((p0, root, zero))
    return tuple(walk)


_GHZ_WALK = _ghz_walk()
# Either outcome's branch weighs p0, so no loser step meets an impossible branch.
if min(p0 for p0, _, _ in _GHZ_WALK) <= _BRANCH_EPS:
    raise RuntimeError(f"extraction's GHZ walk has a zero-probability step: {_GHZ_WALK!r}")


def extract_epr(ghz: StateVector, p: PSequence, rng: RandomSource) -> ExtractionResult:
    """Measure every loser qubit in the Hadamard basis, leaving the pair a Bell state.

    ``ghz`` must equal ``prepare_ghz(len(p))``, else ValueError: the shared
    GHZ state is the protocol's one extraction resource. After each loser's
    H the state has two terms, every unmeasured qubit 0 (``zero``) or every
    one 1 (``one``), so only their amplitudes are carried, through the float
    steps of H and then ``measure(state, loser, rng)``, one draw per loser in
    ascending order. Each step's p0, norm and ``zero`` do not depend on the
    outcomes, so every loser replays ``_GHZ_WALK``; only ``one`` is
    multiplied and divided per loser. Outcomes, parity and post-state equal
    that per-loser walk bit for bit (pinned in tests); ``apply_up`` followed
    by computational measurements gives the same statistics.
    """
    if ghz.num_qubits != len(p):
        raise ValueError(
            f"state has {ghz.num_qubits} qubits but sequence covers {len(p)} nodes"
        )
    num_qubits = ghz.num_qubits
    top = (1 << num_qubits) - 1
    support = ghz._support
    if support != {0: _SQ2, top: _SQ2}:
        raise ValueError(
            "extract_epr takes prepare_ghz's state only: (|0...0> + |1...1>)/sqrt(2)"
        )
    (_, m01), (_, m11) = HADAMARD.matrix
    zero, one = support[0], support[top]
    outcomes: dict[int, int] = {}
    for qubit, (p0, root, zero) in zip(p.losers, cycle(_GHZ_WALK)):
        outcome = _sample(p0, rng)
        one = (m11 if outcome else m01) * one / root
        outcomes[qubit] = outcome
    # the losers' outcome-1 bits, set in both terms
    pinned = _index_with(num_qubits, outcomes)
    pair = p.pair
    pair_bits = sum(1 << (num_qubits - 1 - q) for q in pair)
    return ExtractionResult(
        pair=pair,
        outcomes=outcomes,
        parity=loser_parity(outcomes.values()),
        state=_state(num_qubits, {pinned: zero, pinned | pair_bits: one}),
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
