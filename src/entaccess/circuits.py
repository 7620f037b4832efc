"""Resource-state preparation: the GHZ and the leader-aware state.

The leader-aware state is a W state over the end-nodes' qubits enriched with
ceil(log2 n) orchestrator-held ancillas. A chain of CNOTs copies the binary
index of the (future) winner into the ancilla block, so measuring the W
qubits elects a unique winner while the ancillas collapse to its codeword.
That chain is plain data: ``leader_aware_circuit(n)`` gives its CNOTs as
``(control, target)`` pairs, and ``circuit_text(n)`` renders them as the
``QUBITS``/``CX`` text of ``entaccess export-circuit``, which writes
``circuit_lines(n)`` as they are made. The simulator never runs the chain;
``prepare_leader_aware`` writes its n-term result directly.
Its two facts, each term's amplitude (``leader_aware_amplitude``) and the
winner's ancilla tag (``codeword``), are stated here once, for the state,
the circuit and the closed-form contention of ``protocol``.

Register layout for n end-nodes: W qubits 0..n-1 (qubit i-1 belongs to
end-node N_i), ancillas n..n+m-1 (a_j at index n+j, least significant first).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import lru_cache

from .statevector import _SQ2, MAX_DENSE_QUBITS, StateVector, as_int

MAX_END_NODES = 1_000_000  # a sampled slot peaks near 0.6 kB per end-node: ~0.6 GB at the limit
_MAX_LEADER_AWARE_BITS = 128 << MAX_DENSE_QUBITS  # a dense view's 256 MiB: n ~ 46,000 here


def end_node_count(n: int) -> int:
    """``n`` as a Python int; ValueError unless 1 <= n <= ``MAX_END_NODES``."""
    n = as_int("n", n)
    if n < 1:
        raise ValueError("need at least one end-node")
    if n > MAX_END_NODES:
        raise ValueError(
            f"n={n} end-nodes is over the limit of {MAX_END_NODES}, "
            "the largest network entaccess simulates or exports"
        )
    return n


def ancilla_count(n: int) -> int:
    """Number of ancilla qubits needed to address n end-nodes."""
    n = as_int("n", n)
    if n < 1:
        raise ValueError("need at least one end-node")
    return (n - 1).bit_length()


def codeword(node: int, m: int) -> tuple[int, ...]:
    """The ``m`` ancilla bits that name end-node ``node``: node - 1 in binary,
    least significant first (a_j holds bit j)."""
    return tuple(((node - 1) >> j) & 1 for j in range(m))


def leader_aware_amplitude(n: int) -> float:
    """The amplitude of each of the leader-aware state's n terms."""
    return 1.0 / math.sqrt(n)


@dataclass(frozen=True)
class LeaderAwareLayout:
    """Qubit indexing for the leader-aware register of n end-nodes."""

    n: int
    m: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", end_node_count(self.n))
        object.__setattr__(self, "m", ancilla_count(self.n))

    @property
    def num_qubits(self) -> int:
        return self.n + self.m

    @property
    def w_qubits(self) -> tuple[int, ...]:
        return tuple(range(self.n))

    @property
    def ancilla_qubits(self) -> tuple[int, ...]:
        return tuple(range(self.n, self.n + self.m))


@lru_cache(maxsize=16, typed=True)
def prepare_ghz(q: int) -> StateVector:
    """(|0...0> + |1...1>)/sqrt(2) over q qubits.

    Built and validated once per ``q`` (and type of ``q``, so a float is
    still refused): states are immutable, so every slot of a run shares one.
    The cache holds at most 16 sizes, each two terms whose index ints take
    q bits.
    """
    q = as_int("q", q)
    if q < 2:
        raise ValueError("GHZ state needs at least two qubits")
    return StateVector(q, {0: _SQ2, (1 << q) - 1: _SQ2})


def leader_aware_circuit(n: int) -> Iterator[tuple[int, int]]:
    """CNOT chain copying each end-node's index into the ancilla block.

    One ``(control, target)`` pair per CNOT: for end-node N_i, every set bit
    j of i-1 adds one CNOT controlled by N_i's W qubit targeting ancilla a_j.
    Emission order is ascending i, then ascending j. ``n`` is checked here;
    the pairs are made as they are read, so the chain is never held whole.
    """
    layout = LeaderAwareLayout(n)
    ancillas = layout.ancilla_qubits
    return (
        (w, a)
        for node, w in enumerate(layout.w_qubits, start=1)
        for bit, a in zip(codeword(node, layout.m), ancillas)
        if bit
    )


def circuit_lines(n: int) -> Iterator[str]:
    """``circuit_text(n)`` line by line, each with its newline, made as it is read."""
    header = f"QUBITS {LeaderAwareLayout(n).num_qubits}\n"
    cnots = (f"CX {control} {target}\n" for control, target in leader_aware_circuit(n))
    return itertools.chain([header], cnots)


def circuit_text(n: int) -> str:
    """Line-oriented export: ``QUBITS <count>`` header, then ``CX <control> <target>`` per CNOT."""
    return "".join(circuit_lines(n))


def prepare_leader_aware(n: int) -> StateVector:
    """The contention resource: n one-hot W terms, each tagged with the
    winner's binary index on the ancillas.

    Built directly from its n-term support; ``leader_aware_circuit(n)``
    applied to W tensor |0...0> produces the same state (checked in tests).
    Its n indices of n + m bits each grow as n^2, so ValueError, before
    anything is built, once they would pass ``_MAX_LEADER_AWARE_BITS``.
    """
    layout = LeaderAwareLayout(n)
    total = layout.num_qubits
    if layout.n * total > _MAX_LEADER_AWARE_BITS:
        raise ValueError(
            f"the leader-aware state of n={layout.n} end-nodes would hold {layout.n * total} "
            f"index bits (n indices of n+m), over the limit of {_MAX_LEADER_AWARE_BITS}"
        )
    amp = leader_aware_amplitude(layout.n)
    ancilla_bits = [1 << (total - 1 - q) for q in layout.ancilla_qubits]
    support = {}
    for node, w in enumerate(layout.w_qubits, start=1):
        index = 1 << (total - 1 - w)
        for bit, mask in zip(codeword(node, layout.m), ancilla_bits):
            if bit:
                index |= mask
        support[index] = amp
    return StateVector(total, support)
