"""Slot protocols for entanglement access on a star network.

One orchestrator (node 0) and n end-nodes share two fresh resources per
time slot: a GHZ state (one qubit per node, the communication resource) and
a leader-aware state (W qubits at the end-nodes, ancillas at the
orchestrator). A slot runs:

1. contention: every end-node measures its W qubit; the single node that
   reads 1 wins the slot, and the ancillas collapse to its index so the
   orchestrator learns the winner without any classical signaling;
2. extraction: losers vacate the GHZ state with Hadamard-basis
   measurements, leaving a Bell pair between the orchestrator and winner;
3. teleportation: the slot's transmitter (winner in uplink, orchestrator in
   downlink) teleports a payload qubit over the pair; the receiver applies
   X/Z corrections from the measurement bits plus the losers' parity.

Classical traffic per slot has a fixed shape: every end-node sends exactly
one two-bit report (losers pad with dummy random bits), and in downlink the
orchestrator answers with one three-bit broadcast. Nothing on the wire
depends on who won. An end-node observes its own W bit and the messages
it sends or receives: its own report and the downlink broadcast, never
another end-node's report. ``local_view`` is the only definition of that
view, for ``SlotReport.local_views`` and the anonymity oracle alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .circuits import LeaderAwareLayout, prepare_ghz, prepare_leader_aware
from .extraction import build_p_sequence, extract_epr
from .statevector import (
    Basis,
    HADAMARD,
    PAULI_X,
    PAULI_Z,
    RandomSource,
    StateVector,
    apply_cnot,
    apply_single,
    fidelity,
    haar_qubit,
    measure,
    product_state,
    tensor_product,
)

ORCHESTRATOR = 0


class SlotType(Enum):
    UPLINK = "uplink"
    DOWNLINK = "downlink"


class Role(Enum):
    TRANSMITTER = "transmitter"
    RECEIVER = "receiver"
    LOSER = "loser"


class ProtocolError(RuntimeError):
    """A branch the protocol guarantees impossible was observed."""


@dataclass(frozen=True)
class ContentionOutcome:
    """The realized transmitter/receiver assignment for one slot."""

    slot_type: SlotType
    transmitter: int
    receiver: int

    def __post_init__(self) -> None:
        if not isinstance(self.slot_type, SlotType):
            raise ValueError(f"slot type must be a SlotType, got {self.slot_type!r}")
        if self.transmitter == self.receiver:
            raise ValueError("transmitter and receiver must differ")
        if self.slot_type is SlotType.UPLINK and self.receiver != ORCHESTRATOR:
            raise ValueError("uplink slots receive at the orchestrator")
        if self.slot_type is SlotType.DOWNLINK and self.transmitter != ORCHESTRATOR:
            raise ValueError("downlink slots transmit from the orchestrator")

    @property
    def winner(self) -> int:
        """The end-node member of the pair."""
        return self.transmitter if self.transmitter != ORCHESTRATOR else self.receiver

    @classmethod
    def for_slot(cls, slot_type: SlotType, winner: int) -> ContentionOutcome:
        """The slot's pair: the winner transmits in uplink and receives in downlink."""
        if slot_type is SlotType.UPLINK:
            return cls(slot_type, transmitter=winner, receiver=ORCHESTRATOR)
        return cls(slot_type, transmitter=ORCHESTRATOR, receiver=winner)

    def role_of(self, node: int) -> Role:
        if node == self.transmitter:
            return Role.TRANSMITTER
        if node == self.receiver:
            return Role.RECEIVER
        return Role.LOSER


@dataclass(frozen=True)
class EndNodeReport:
    """The two bits every end-node uploads each slot."""

    g: int
    q: int

    BIT_COUNT = 2


@dataclass(frozen=True)
class OrchestratorBroadcast:
    """Downlink completion bits, sent unaddressed so they name no receiver."""

    q_star: int
    g0: int
    parity: int

    BIT_COUNT = 3


@dataclass(frozen=True)
class ClassicalMessage:
    sender: int
    recipient: int | None  # None means broadcast
    payload: EndNodeReport | OrchestratorBroadcast


@dataclass
class SlotReport:
    """Full trace of one slot: outcome, message log, and verification data."""

    outcome: ContentionOutcome
    w_outcomes: tuple[int, ...]
    ancilla: tuple[int, ...]
    parity: int
    teleport_fidelity: float
    messages: tuple[ClassicalMessage, ...]

    @property
    def local_views(self) -> dict[int, tuple]:
        """Each end-node's ``local_view`` of this slot, keyed by node."""
        return {i: local_view(i, w, self.messages) for i, w in enumerate(self.w_outcomes, 1)}

    def to_record(self, slot_index: int) -> dict:
        """JSON-ready trace record for this slot."""
        msgs = []
        for m in self.messages:
            entry: dict = {
                "from": m.sender,
                "to": "broadcast" if m.recipient is None else m.recipient,
            }
            if isinstance(m.payload, EndNodeReport):
                entry.update(type="report", g=m.payload.g, q=m.payload.q)
            else:
                entry.update(
                    type="broadcast",
                    q_star=m.payload.q_star,
                    g0=m.payload.g0,
                    parity=m.payload.parity,
                )
            msgs.append(entry)
        return {
            "slot": slot_index,
            "slot_type": self.outcome.slot_type.value,
            "transmitter": self.outcome.transmitter,
            "receiver": self.outcome.receiver,
            "winner": self.outcome.winner,
            "w_outcomes": list(self.w_outcomes),
            "ancilla": list(self.ancilla),
            "parity": self.parity,
            "fidelity": self.teleport_fidelity,
            "messages": msgs,
        }


def message_bits(messages: Sequence[ClassicalMessage]) -> int:
    """Total classical bits on the wire."""
    return sum(m.payload.BIT_COUNT for m in messages)


def message_shape(messages: Sequence[ClassicalMessage]) -> tuple:
    """Observable traffic shape: (sender, recipient, size) per message, in order.

    Must be a function of n and slot type only, never of the winner.
    """
    return tuple(
        (m.sender, "broadcast" if m.recipient is None else m.recipient, m.payload.BIT_COUNT)
        for m in messages
    )


def local_view(node: int, w: int, messages: Sequence[ClassicalMessage]) -> tuple:
    """End-node ``node``'s view, hashable: ``(node, w, messages it sent or received)``."""
    seen = tuple(m for m in messages if m.sender == node or m.recipient in (node, None))
    return node, w, seen


def contend(
    leader_aware: StateVector, rng: RandomSource
) -> tuple[int, tuple[int, ...], StateVector]:
    """Every end-node measures its W qubit; exactly one reads 1 and wins.

    Returns (winner, per-node outcomes, post-measurement state with the
    ancillas still unread). Each node only ever sees its own outcome; the
    full vector is returned for bookkeeping.
    """
    layout = LeaderAwareLayout.from_total_qubits(leader_aware.num_qubits)
    state = leader_aware
    outcomes = []
    for qubit in layout.w_qubits:
        record, state = measure(state, qubit, Basis.COMPUTATIONAL, rng)
        outcomes.append(record.outcome)
    winners = [i + 1 for i, w in enumerate(outcomes) if w == 1]
    if len(winners) != 1:
        raise ProtocolError(f"contention produced {len(winners)} winners: {outcomes}")
    return winners[0], tuple(outcomes), state


def read_ancillas(
    state: StateVector, layout: LeaderAwareLayout, rng: RandomSource
) -> tuple[tuple[int, ...], StateVector]:
    """Orchestrator-side readout of the ancilla block (deterministic after contention)."""
    bits = []
    for qubit in layout.ancilla_qubits:
        record, state = measure(state, qubit, Basis.COMPUTATIONAL, rng)
        bits.append(record.outcome)
    return tuple(bits), state


def decode_ancilla(ancilla: Sequence[int], n: int) -> int:
    """Winner identity from the ancilla readout: 1 + sum of a_j * 2^j."""
    winner = 1 + sum(bit << j for j, bit in enumerate(ancilla))
    if winner > n:
        raise ValueError(
            f"ancilla readout {tuple(ancilla)} decodes to node {winner} > n={n}; "
            "input state was not a valid contention resource"
        )
    return winner


def teleport_send(
    state: StateVector, payload_qubit: int, epr_qubit: int, rng: RandomSource
) -> tuple[int, int, StateVector]:
    """Transmitter half of teleportation over an already-extracted pair.

    CNOT from the payload onto the local pair qubit, H on the payload, then
    measure both. Returns (q_star, g_star, post-state).
    """
    state = apply_cnot(state, payload_qubit, epr_qubit)
    state = apply_single(state, payload_qubit, HADAMARD)
    q_record, state = measure(state, payload_qubit, Basis.COMPUTATIONAL, rng)
    g_record, state = measure(state, epr_qubit, Basis.COMPUTATIONAL, rng)
    return q_record.outcome, g_record.outcome, state


def teleport_receive(
    state: StateVector, epr_qubit: int, q_star: int, g_star: int, parity: int
) -> StateVector:
    """Receiver corrections: X^g_star then Z^(q_star XOR parity).

    The Z exponent folds the ordinary teleportation phase fix with the
    repair of a |Phi-> pair (odd loser parity); the two Z factors commute.
    """
    if g_star:
        state = apply_single(state, epr_qubit, PAULI_X)
    if q_star ^ parity:
        state = apply_single(state, epr_qubit, PAULI_Z)
    return state


def _as_rng(seed_or_rng: RandomSource | int) -> RandomSource:
    if isinstance(seed_or_rng, RandomSource):
        return seed_or_rng
    return RandomSource(seed_or_rng)


def _payloads_for(n: int, payloads: Sequence[StateVector] | None, rng: RandomSource):
    if payloads is None:
        return [haar_qubit(rng) for _ in range(n)]
    if len(payloads) != n:
        raise ValueError(f"need one payload per end-node, got {len(payloads)} for n={n}")
    for p in payloads:
        if p.num_qubits != 1:
            raise ValueError("payloads must be single-qubit states")
    return list(payloads)


def delivered_fidelity(
    final: StateVector,
    outcome: ContentionOutcome,
    payload: StateVector,
    loser_bits: dict[int, int],
    q_star: int,
    g_star: int,
) -> float:
    """Overlap of a finished slot register with the payload at the receiver.

    Every other qubit is pinned to its measured bit: losers to ``loser_bits``,
    the transmitter's pair qubit to ``g_star`` and the last (payload) to ``q_star``.
    """
    pinned = {**loser_bits, outcome.transmitter: g_star, final.num_qubits - 1: q_star}
    vectors = [
        payload.amplitudes if q == outcome.receiver else ((1.0, 0.0), (0.0, 1.0))[pinned[q]]
        for q in range(final.num_qubits)
    ]
    return fidelity(final, product_state(vectors))


def run_contention(n: int, rng: RandomSource) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """Slot prologue: contention plus orchestrator ancilla decode.

    Returns (winner, per-node W outcomes, ancilla readout); raises
    ``ProtocolError`` if the ancillas name a node other than the winner.
    """
    layout = LeaderAwareLayout(n)
    winner, w_outcomes, lam = contend(prepare_leader_aware(n), rng)
    ancilla, _ = read_ancillas(lam, layout, rng)
    decoded = decode_ancilla(ancilla, n)
    if decoded != winner:
        raise ProtocolError(
            f"ancilla readout named node {decoded} but contention winner is {winner}"
        )
    return winner, w_outcomes, ancilla


def run_slot(
    n: int,
    slot_type: SlotType,
    payloads: Sequence[StateVector] | None = None,
    rng: RandomSource | int = 0,
) -> SlotReport:
    """One slot: contention, EPR extraction, then teleportation over the pair.

    The slot type only decides who sends: the contention winner teleports to
    the orchestrator in uplink, the orchestrator to the winner in downlink.
    ``payloads[i-1]`` is the qubit sent by (uplink) or held for (downlink)
    end-node N_i; only the winner's is consumed. When None, the payloads are
    drawn uniformly from the Bloch sphere using ``rng``.
    """
    rng = _as_rng(rng)
    payloads = _payloads_for(n, payloads, rng)
    winner, w_outcomes, ancilla = run_contention(n, rng)
    outcome = ContentionOutcome.for_slot(slot_type, winner)
    uplink = slot_type is SlotType.UPLINK

    ext = extract_epr(prepare_ghz(n + 1), build_p_sequence(winner, n), rng)
    payload = payloads[winner - 1]
    joint = tensor_product(ext.state, payload)  # payload joins as qubit n+1
    if uplink:
        q_star, g_star, joint = teleport_send(joint, n + 1, winner, rng)

    # Every end-node sends one report. Losers send their extraction bit and a
    # dummy; the winner sends its teleportation bits (uplink) or two random
    # padding bits, g then q, drawn in its turn (downlink).
    messages = []
    for node in range(1, n + 1):
        if node != winner:
            g, q = ext.outcomes[node], rng.bit()
        elif uplink:
            g, q = g_star, q_star
        else:
            g, q = rng.bit(), rng.bit()
        messages.append(ClassicalMessage(node, ORCHESTRATOR, EndNodeReport(g=g, q=q)))
    parity = 0
    for msg in messages:
        if msg.sender != winner:
            parity ^= msg.payload.g
    if not uplink:
        q_star, g_star, joint = teleport_send(joint, n + 1, ORCHESTRATOR, rng)
        broadcast = OrchestratorBroadcast(q_star=q_star, g0=g_star, parity=parity)
        messages.append(ClassicalMessage(ORCHESTRATOR, None, broadcast))

    final = teleport_receive(joint, outcome.receiver, q_star, g_star, parity)
    return SlotReport(
        outcome=outcome,
        w_outcomes=w_outcomes,
        ancilla=ancilla,
        parity=parity,
        teleport_fidelity=delivered_fidelity(final, outcome, payload, ext.outcomes, q_star, g_star),
        messages=tuple(messages),
    )


def run_uplink_slot(
    n: int,
    payloads: Sequence[StateVector] | None = None,
    rng: RandomSource | int = 0,
) -> SlotReport:
    """``run_slot`` for an uplink slot."""
    return run_slot(n, SlotType.UPLINK, payloads, rng)


def run_downlink_slot(
    n: int,
    payloads: Sequence[StateVector] | None = None,
    rng: RandomSource | int = 0,
) -> SlotReport:
    """``run_slot`` for a downlink slot."""
    return run_slot(n, SlotType.DOWNLINK, payloads, rng)
