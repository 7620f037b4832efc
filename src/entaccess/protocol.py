"""Slot protocols for entanglement access on a star network.

One orchestrator (node 0) and n end-nodes share two fresh resources per
time slot: a GHZ state (one qubit per node, the communication resource) and
a leader-aware state (W qubits at the end-nodes, ancillas at the
orchestrator). A slot runs:

1. contention: every end-node measures its W qubit; the single node that
   reads 1 wins the slot, and the ancillas collapse to its codeword so the
   orchestrator learns the winner without any classical signaling. A
   sampled slot draws these outcomes in closed form (``sample_contention``,
   ``sample_ancillas``), without building the leader-aware state, and
   ``winners`` decides a block of fairness trials at once by the same
   thresholds (``contention_thresholds``);
2. extraction: losers vacate the GHZ state with Hadamard-basis
   measurements, leaving a Bell pair between the orchestrator and winner;
3. teleportation: the slot's transmitter (winner in uplink, orchestrator in
   downlink) teleports a payload qubit over the pair; the receiver applies
   X/Z corrections from the measurement bits plus the losers' parity.

Classical traffic per slot has a fixed shape, built by ``slot_messages``:
every end-node sends exactly one two-bit report (losers pad with dummy
random bits), and in downlink the orchestrator answers with one three-bit
broadcast. Only that shape is independent of the winner: in downlink the
XOR of every report's g bit with the broadcast parity is the winner's
padding g bit, which each loser's g matches with probability 1/2 only.
An end-node observes
its own W bit and the messages it sends or receives: its own report and
the downlink broadcast, never another end-node's report. ``local_view`` is
the only definition of that view. A slot's type and winner fix its pair,
``ContentionOutcome(slot_type, winner)``: who transmits and who receives.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from .circuits import (
    LeaderAwareLayout,
    ancilla_count,
    codeword,
    end_node_count,
    leader_aware_amplitude,
    prepare_ghz,
    prepare_leader_aware,
)
from .extraction import build_p_sequence, extract_epr, parity_correct
from .statevector import (
    HADAMARD,
    PAULI_X,
    _BRANCH_EPS,
    RandomSource,
    StateVector,
    _sample,
    _state,
    _zero_branch,
    apply_cnot,
    apply_single,
    bloch_qubit,
    embed,
    fidelity,
    measure,
    tensor_product,
)

if TYPE_CHECKING:
    import numpy as np

ORCHESTRATOR = 0


class SlotType(Enum):
    UPLINK = "uplink"
    DOWNLINK = "downlink"


_UPLINK = SlotType.UPLINK  # for the role properties: SlotType.UPLINK is a metaclass lookup


class ProtocolError(RuntimeError):
    """A branch the protocol guarantees impossible was observed."""


@dataclass(frozen=True)
class ContentionOutcome:
    """One slot's pair: the winner transmits in uplink and receives in downlink,
    and the orchestrator takes the other role."""

    slot_type: SlotType
    winner: int

    def __post_init__(self) -> None:
        if not isinstance(self.slot_type, SlotType):
            raise ValueError(f"slot type must be a SlotType, got {self.slot_type!r}")
        if self.winner == ORCHESTRATOR:
            raise ValueError("the winner is an end-node, not the orchestrator")

    @property
    def transmitter(self) -> int:
        return self.winner if self.slot_type is _UPLINK else ORCHESTRATOR

    @property
    def receiver(self) -> int:
        return ORCHESTRATOR if self.slot_type is _UPLINK else self.winner


class EndNodeReport(NamedTuple):
    """The two bits every end-node uploads each slot."""

    g: int
    q: int

    KIND = "report"


class OrchestratorBroadcast(NamedTuple):
    """Downlink completion bits, sent unaddressed so they name no receiver."""

    q_star: int
    g0: int
    parity: int

    KIND = "broadcast"


class ClassicalMessage(NamedTuple):
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

    def to_record(self, slot_index: int) -> dict:
        """JSON-ready trace record for this slot."""
        msgs = [
            {
                "from": m.sender,
                "to": "broadcast" if m.recipient is None else m.recipient,
                "type": m.payload.KIND,
                **m.payload._asdict(),
            }
            for m in self.messages
        ]
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


def message_shape(messages: Sequence[ClassicalMessage]) -> tuple:
    """Observable traffic shape: (sender, recipient, size in bits) per message, in order.

    Each payload field is one bit. The shape must be a function of n and
    slot type only, never of the winner; its sizes sum to the bits on the wire.
    """
    return tuple(
        (m.sender, "broadcast" if m.recipient is None else m.recipient, len(m.payload))
        for m in messages
    )


def local_view(node: int, w: int, messages: Sequence[ClassicalMessage]) -> tuple:
    """End-node ``node``'s view, hashable: ``(node, w, messages it sent or received)``."""
    seen = tuple(m for m in messages if m.sender == node or m.recipient in (node, None))
    return node, w, seen


def slot_messages(
    slot_type: SlotType,
    reports: dict[int, tuple[int, int]],
    q_star: int,
    g_star: int,
    parity: int,
) -> tuple[ClassicalMessage, ...]:
    """Each ``node: (g, q)`` report, addressed to the orchestrator; then, in downlink,
    the orchestrator's broadcast, unaddressed so that it names no receiver.
    """
    messages = [
        ClassicalMessage(node, ORCHESTRATOR, EndNodeReport(*bits)) for node, bits in reports.items()
    ]
    if slot_type is SlotType.DOWNLINK:
        broadcast = OrchestratorBroadcast(q_star, g_star, parity)
        messages.append(ClassicalMessage(ORCHESTRATOR, None, broadcast))
    return tuple(messages)


def one_hot_winner(w_outcomes: Sequence[int]) -> int:
    """The end-node whose W bit reads 1; ``ProtocolError`` unless exactly one does."""
    won = [i + 1 for i, w in enumerate(w_outcomes) if w == 1]
    if len(won) != 1:
        raise ProtocolError(f"contention produced {len(won)} winners: {tuple(w_outcomes)}")
    return won[0]


def contend(
    leader_aware: StateVector, rng: RandomSource
) -> tuple[int, tuple[int, ...], StateVector]:
    """Every end-node measures its W qubit; exactly one reads 1 and wins.

    ``leader_aware`` must equal ``prepare_leader_aware(n)``, n its term count,
    else ValueError; its W outcomes are ``sample_contention(n, rng)``'s.
    Returns (winner, per-node outcomes, the winner's term with the ancillas
    unread). Each node only sees its own outcome; the full vector is bookkeeping.
    """
    n = len(leader_aware.support)
    if leader_aware != prepare_leader_aware(n):
        raise ValueError("contend takes prepare_leader_aware's state only")
    winner, outcomes = sample_contention(n, rng)
    mask = leader_aware._mask(winner - 1)
    (index,) = (i for i in leader_aware.support if i & mask)
    return winner, outcomes, _state(leader_aware.num_qubits, {index: complex(1.0)})


def read_ancillas(
    state: StateVector, layout: LeaderAwareLayout, rng: RandomSource
) -> tuple[tuple[int, ...], StateVector]:
    """Orchestrator-side readout of the ancillas of ``contend``'s post-state: one
    term over ``layout``'s register (else ValueError), returned unchanged."""
    if len(state.support) != 1 or state.num_qubits != layout.num_qubits:
        raise ValueError(f"read_ancillas takes one term over {layout.num_qubits} qubits")
    (index,) = state.support
    bits = [1 if index & state._mask(q) else 0 for q in layout.ancilla_qubits]
    return _read_bits(bits, rng), state


# Built once per n, which a session or fairness run keeps: rebuilt every slot,
# the tuple would cost a slot more than the loop it feeds. Typed, so that 4.0
# is checked, not served 4's entry.
@functools.lru_cache(maxsize=1, typed=True)
def contention_thresholds(n: int) -> tuple[float, ...]:
    """The p0 of each W draw while no node has won: the draw for W qubit j
    (node j+1) elects it unless it falls below ``p0[j]``.

    The leader-aware support is n terms of equal weight, and its W block is
    one-hot, so measuring its W qubits in turn, sorted by W bits, is fixed by
    integers and one prefix-sum list of the n weights: node k's term sits at
    n - k. ``p0[j]`` is the weight of nodes j+2..n over that of nodes j+1..n,
    the floats of the sorted walk that the tests keep (pinned by ``float.hex``).

    Each p0 is checked here, once: the last is 0.0, so some node wins, and
    every other leaves both branches above ``_BRANCH_EPS``. So ``_sample``'s
    impossible-branch flip never moves a draw u in [0, 1), and ``u >= p0[j]``
    is exactly its outcome.
    """
    n = end_node_count(n)
    weight = abs(leader_aware_amplitude(n)) ** 2
    cum = list(accumulate([weight] * n, initial=0.0))
    thresholds = tuple(cum[n - j - 1] / cum[n - j] for j in range(n))
    for j, p0 in enumerate(thresholds):
        if 0.0 < p0 <= _BRANCH_EPS:
            raise _zero_branch(j, 0, p0)
        if 1.0 - p0 <= _BRANCH_EPS:
            raise _zero_branch(j, 1, 1.0 - p0)
    return thresholds


def sample_contention(n: int, rng: RandomSource) -> tuple[int, tuple[int, ...]]:
    """The W measurements of ``prepare_leader_aware(n)`` in closed form: (winner, W outcomes).

    Until a node has won, draw j is sampled by ``_sample`` against
    ``contention_thresholds(n)[j]``; after it only the winner's term is left,
    so each draw compares with 1.0 and reads 0. Every draw takes the same
    floats and checks as the tests' sorted walk over the state's support, so
    the two agree bit for bit, without a state or an (n+m)-bit index.
    """
    thresholds = contention_thresholds(n)
    outcomes = [0] * len(thresholds)
    for j, p0 in enumerate(thresholds):  # the last p0 is 0.0, so some node wins
        if _sample(p0, rng):
            outcomes[j] = 1
            break
    for _ in range(j + 1, len(thresholds)):
        _sample(1.0, rng)  # reads 0: the rule never samples a branch of weight 0.0
    return one_hot_winner(outcomes), tuple(outcomes)


def winners(n: int, uniforms: np.ndarray) -> np.ndarray:
    """The winner of each row of ``uniforms``, n W draws in [0, 1) to a row.

    A row elects 1 + the first column j where its draw is at least
    ``contention_thresholds(n)[j]``: the winner ``sample_contention`` elects
    from the same n draws.
    """
    return (uniforms >= _threshold_array(n)).argmax(axis=-1) + 1


# Cached as the tuple is: past n = 2^16 one trial fills a ``winners`` matrix.
@functools.lru_cache(maxsize=1, typed=True)
def _threshold_array(n: int) -> np.ndarray:
    """``contention_thresholds(n)`` as a read-only numpy array."""
    import numpy as np

    array = np.array(contention_thresholds(n))
    array.flags.writeable = False
    return array


def _read_bits(bits: Sequence[int], rng: RandomSource) -> tuple[int, ...]:
    """Measure qubits whose bits are known, one draw each: ``_sample`` against
    1.0 for a 0 bit and 0.0 for a 1 bit reads each bit back."""
    return tuple(_sample(1.0 - bit, rng) for bit in bits)


def sample_ancillas(winner: int, n: int, rng: RandomSource) -> tuple[int, ...]:
    """``read_ancillas`` after contention in closed form: ``winner``'s codeword."""
    return _read_bits(codeword(winner, ancilla_count(n)), rng)


def decode_ancilla(ancilla: Sequence[int], n: int) -> int:
    """Winner identity from the ancilla readout: 1 + sum of a_j * 2^j."""
    if not {*ancilla} <= {0, 1}:
        raise ValueError(f"ancilla readout {tuple(ancilla)} holds an entry that is not a bit")
    winner = 1 + sum(bit << j for j, bit in enumerate(ancilla))
    if winner > n:
        raise ValueError(
            f"ancilla readout {tuple(ancilla)} decodes to node {winner} > n={n}; "
            "input state was not a valid contention resource"
        )
    return winner


def check_ancilla(ancilla: Sequence[int], n: int, winner: int) -> None:
    """``ProtocolError`` unless the ancilla readout names ``winner``, a node of 1..n."""
    try:
        decoded = decode_ancilla(ancilla, n)
    except ValueError as err:
        raise ProtocolError(str(err)) from None
    if decoded != winner:
        raise ProtocolError(
            f"ancilla readout named node {decoded} but contention winner is {winner}"
        )


def teleport_rotate(state: StateVector, payload_qubit: int, epr_qubit: int) -> StateVector:
    """The transmitter's rotation: CNOT from the payload onto its pair qubit, then H."""
    state = apply_cnot(state, payload_qubit, epr_qubit)
    return apply_single(state, payload_qubit, HADAMARD)


def teleport_send(
    state: StateVector, payload_qubit: int, epr_qubit: int, rng: RandomSource
) -> tuple[int, int, StateVector]:
    """Transmitter half of teleportation over an already-extracted pair.

    ``teleport_rotate``, then measure both. Returns (q_star, g_star, post-state).
    """
    state = teleport_rotate(state, payload_qubit, epr_qubit)
    q_star, state = measure(state, payload_qubit, rng)
    g_star, state = measure(state, epr_qubit, rng)
    return q_star, g_star, state


def teleport_receive(
    state: StateVector, epr_qubit: int, q_star: int, g_star: int, parity: int
) -> StateVector:
    """Receiver corrections: X^g_star then Z^(q_star XOR parity).

    The Z exponent folds the ordinary teleportation phase fix with the
    repair of a |Phi-> pair (odd loser parity); the two Z factors commute.
    """
    if g_star:
        state = apply_single(state, epr_qubit, PAULI_X)
    return parity_correct(state, q_star ^ parity, epr_qubit)


def _payloads_for(
    n: int, payloads: Sequence[StateVector] | None, rng: RandomSource
) -> Callable[[int], StateVector]:
    """The slot's winner -> payload lookup.

    Random payloads draw their uniforms now, two per end-node in node order
    as ``n`` calls of ``haar_qubit`` would, but only the winner's is built.
    """
    if payloads is None:
        draws = [rng.random() for _ in range(2 * n)]
        return lambda winner: bloch_qubit(draws[2 * winner - 2], draws[2 * winner - 1])
    if len(payloads) != n:
        raise ValueError(f"need one payload per end-node, got {len(payloads)} for n={n}")
    for p in payloads:
        if p.num_qubits != 1:
            raise ValueError("payloads must be single-qubit states")
    payloads = list(payloads)
    return lambda winner: payloads[winner - 1]


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
    return fidelity(final, embed(payload, [outcome.receiver], final.num_qubits, pinned))


def run_contention(n: int, rng: RandomSource) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """Slot prologue: contention plus orchestrator ancilla decode.

    Returns (winner, per-node W outcomes, ancilla readout), drawing n + m
    uniforms as ``contend`` then ``read_ancillas`` on ``prepare_leader_aware(n)``
    would; raises ``ProtocolError`` if the ancillas name a node other than
    the winner.
    """
    winner, w_outcomes = sample_contention(n, rng)
    ancilla = sample_ancillas(winner, n, rng)
    check_ancilla(ancilla, n, winner)
    return winner, w_outcomes, ancilla


def run_slot(
    n: int, slot_type: SlotType, payloads: Sequence[StateVector] | None, rng: RandomSource
) -> SlotReport:
    """One slot: contention, EPR extraction, then teleportation over the pair.

    The slot type only decides who sends: the contention winner teleports to
    the orchestrator in uplink, the orchestrator to the winner in downlink.
    ``payloads[i-1]`` is the qubit sent by (uplink) or held for (downlink)
    end-node N_i; only the winner's is consumed. When None, the payloads are
    drawn uniformly from the Bloch sphere using ``rng``.
    """
    n = end_node_count(n)  # before the payload draws, which take 2n uniforms
    payload_of = _payloads_for(n, payloads, rng)
    winner, w_outcomes, ancilla = run_contention(n, rng)
    outcome = ContentionOutcome(slot_type, winner)
    uplink = slot_type is SlotType.UPLINK

    ext = extract_epr(prepare_ghz(n + 1), build_p_sequence(winner, n), rng)
    payload = payload_of(winner)
    joint = tensor_product(ext.state, payload)  # payload joins as qubit n+1
    if uplink:
        q_star, g_star, joint = teleport_send(joint, n + 1, outcome.transmitter, rng)

    # Every end-node sends one report. Losers send their extraction bit and a
    # dummy; the winner sends its teleportation bits (uplink) or two random
    # padding bits, g then q, drawn in its turn (downlink).
    reports = {}
    for node in range(1, n + 1):
        if node != winner:
            reports[node] = ext.outcomes[node], rng.bit()
        elif uplink:
            reports[node] = g_star, q_star
        else:
            reports[node] = rng.bit(), rng.bit()
    if not uplink:
        q_star, g_star, joint = teleport_send(joint, n + 1, outcome.transmitter, rng)

    final = teleport_receive(joint, outcome.receiver, q_star, g_star, ext.parity)
    return SlotReport(
        outcome=outcome,
        w_outcomes=w_outcomes,
        ancilla=ancilla,
        parity=ext.parity,
        teleport_fidelity=delivered_fidelity(final, outcome, payload, ext.outcomes, q_star, g_star),
        messages=slot_messages(slot_type, reports, q_star, g_star, ext.parity),
    )


def run_uplink_slot(
    n: int, payloads: Sequence[StateVector] | None, rng: RandomSource
) -> SlotReport:
    """``run_slot`` for an uplink slot."""
    return run_slot(n, SlotType.UPLINK, payloads, rng)


def run_downlink_slot(
    n: int, payloads: Sequence[StateVector] | None, rng: RandomSource
) -> SlotReport:
    """``run_slot`` for a downlink slot."""
    return run_slot(n, SlotType.DOWNLINK, payloads, rng)
