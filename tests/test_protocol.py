"""Contention, ancilla decoding, teleportation, and full slot runs."""

import importlib.util
import math
import random
import sys
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_states import basis_state, marginal_distribution
from entaccess import extraction, protocol, statevector
from entaccess.circuits import LeaderAwareLayout, ancilla_count, prepare_leader_aware
from entaccess.extraction import BELL_PHI_MINUS, BELL_PHI_PLUS, loser_parity
from entaccess.protocol import (
    ClassicalMessage,
    ContentionOutcome,
    EndNodeReport,
    OrchestratorBroadcast,
    ProtocolError,
    SlotType,
    check_ancilla,
    contend,
    decode_ancilla,
    local_view,
    message_shape,
    one_hot_winner,
    read_ancillas,
    run_contention,
    run_downlink_slot,
    run_slot,
    run_uplink_slot,
    sample_contention,
    slot_messages,
    teleport_receive,
    teleport_send,
)
from entaccess.session import (
    SessionConfig,
    enumerate_slot_branches,
    fairness_experiment,
    run_session,
)
from entaccess.statevector import (
    _BRANCH_EPS,
    Basis,
    HADAMARD,
    RandomSource,
    StateVector,
    apply_cnot,
    apply_single,
    enumerate_branches,
    fidelity,
    haar_qubit,
    product_state,
    tensor_product,
)


ROOT = Path(__file__).resolve().parent.parent
# n where the ancilla count m steps (at powers of two) and around it
LAYOUT_NS = [*range(1, 11), 255, 256, 257, 1023, 1024, 1025]
CHANGES = ["all-zero W block", "dropped term", "scaled amplitude", "phased amplitude", "wider"]


def other_state(n, change):
    """``prepare_leader_aware(n)`` with one of the ``CHANGES``, still a valid state."""
    state = prepare_leader_aware(n)
    width, support = state.num_qubits, dict(state.support)
    first, amp = next(iter(support.items()))
    if change == "all-zero W block":
        w_block = sum(1 << (width - 1 - q) for q in range(n))
        return StateVector(width, {i & ~w_block: a for i, a in support.items()})
    if change == "dropped term":  # the rest renormalised
        kept = {i: a * math.sqrt(n / (n - 1)) for i, a in support.items() if i != first}
        return StateVector(width, kept)
    if change == "scaled amplitude":
        return StateVector(width, {**support, first: amp * (1 + 1e-12)})
    if change == "phased amplitude":
        return StateVector(width, {**support, first: amp * 1j})
    return StateVector(width + 1, {i << 1: a for i, a in support.items()})  # a qubit appended


def message_bits(messages):
    """Total classical bits on the wire: the sizes of ``message_shape`` summed."""
    return sum(size for _, _, size in message_shape(messages))


class TestContend:
    def test_single_node_always_wins(self):
        for seed in range(5):
            winner, outcomes, _ = contend(prepare_leader_aware(1), RandomSource(seed))
            assert winner == 1
            assert outcomes == (1,)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_every_branch_is_one_hot(self, n):
        state = prepare_leader_aware(n)
        branches = enumerate_branches(
            state, list(range(n)), [Basis.COMPUTATIONAL] * n
        )
        assert len(branches) == n
        for outcomes, prob, _ in branches:
            assert sum(outcomes) == 1
            assert prob == pytest.approx(1.0 / n)

    def test_sampled_winners_cover_all_nodes(self):
        counts = {node: 0 for node in range(1, 5)}
        for seed in range(400):
            winner, _, _ = contend(prepare_leader_aware(4), RandomSource(seed))
            counts[winner] += 1
        assert all(count > 50 for count in counts.values())

    def test_rejects_non_one_hot_state(self):
        corrupted = basis_state([0] * 6)  # all-zero W block for n=4
        with pytest.raises(ValueError, match="prepare_leader_aware's state only"):
            contend(corrupted, RandomSource(0))

    @pytest.mark.parametrize(
        "n,change",
        [(n, c) for n in LAYOUT_NS for c in CHANGES if (n, c) != (1, "dropped term")],
    )
    def test_rejects_any_other_state_before_drawing(self, n, change):
        rng = CountingSource(n)
        with pytest.raises(ValueError, match="prepare_leader_aware's state only"):
            contend(other_state(n, change), rng)
        assert rng.count == 0
        winner, w_outcomes, post = contend(prepare_leader_aware(n), rng)
        assert rng.count == n and w_outcomes[winner - 1] == 1 and len(post.support) == 1

    @pytest.mark.parametrize("n", LAYOUT_NS)
    def test_read_ancillas_takes_one_term_of_the_layout(self, n):
        layout = LeaderAwareLayout(n)
        winner, _, post = contend(prepare_leader_aware(n), RandomSource(n))
        rng = CountingSource(0)
        (index,) = post.support
        others = [
            StateVector(layout.num_qubits, {index: 0.6, index ^ 1: 0.8}),  # two terms
            StateVector(layout.num_qubits + 1, {index: 1.0}),  # one qubit wider
        ]
        for state in others:
            with pytest.raises(ValueError, match="read_ancillas takes one term"):
                read_ancillas(state, layout, rng)
        assert rng.count == 0
        ancilla, same = read_ancillas(post, layout, rng)
        assert rng.count == layout.m and same is post
        assert decode_ancilla(ancilla, n) == winner


class TestContentionChecks:
    """The checks that the sampled slot and the branch oracle share."""

    def test_one_hot_winner_names_the_node(self):
        assert one_hot_winner((0, 0, 1, 0)) == 3

    @pytest.mark.parametrize("w", [(0, 0, 0), (1, 1, 0), (1, 1, 1)])
    def test_one_hot_winner_rejects_other_readouts(self, w):
        with pytest.raises(ProtocolError, match=f"produced {sum(w)} winners"):
            one_hot_winner(w)

    def test_check_ancilla_accepts_the_winners_codeword(self):
        check_ancilla((1, 0), 4, 2)

    def test_check_ancilla_rejects_another_node(self):
        with pytest.raises(ProtocolError, match="named node 3 but contention winner is 2"):
            check_ancilla((0, 1), 4, 2)

    def test_check_ancilla_rejects_a_readout_past_n(self):
        with pytest.raises(ProtocolError, match="decodes to node 4 > n=3"):
            check_ancilla((1, 1), 3, 1)

    def test_run_contention_rejects_a_readout_naming_another_node(self, monkeypatch):
        real = protocol.sample_ancillas

        def flipped(winner, n, rng):
            # with n = 4 the flipped codeword still names a node, just not the winner
            ancilla = real(winner, n, rng)
            return (1 - ancilla[0], *ancilla[1:])

        monkeypatch.setattr(protocol, "sample_ancillas", flipped)
        with pytest.raises(ProtocolError, match="ancilla readout named node"):
            run_contention(4, RandomSource(0))


class TestDecodeAncilla:
    @pytest.mark.parametrize(
        "ancilla,winner",
        [((0, 0), 1), ((1, 0), 2), ((0, 1), 3), ((1, 1), 4)],
    )
    def test_codeword_table(self, ancilla, winner):
        assert decode_ancilla(ancilla, 4) == winner

    def test_empty_readout_single_node(self):
        assert decode_ancilla((), 1) == 1

    def test_rejects_impossible_codeword(self):
        with pytest.raises(ValueError, match="decodes to node 4"):
            decode_ancilla((1, 1), 3)

    @pytest.mark.parametrize("ancilla", [(1, -1), (2,)])
    def test_rejects_entries_that_are_not_bits(self, ancilla):
        # (1, -1) would decode to the orchestrator, (2,) to node 3
        with pytest.raises(ValueError, match="not a bit"):
            decode_ancilla(ancilla, 4)
        with pytest.raises(ProtocolError, match="not a bit"):
            check_ancilla(ancilla, 4, 1)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_consistent_with_contention(self, n):
        # Ancilla readout names the contention winner in every branch.
        from entaccess.circuits import LeaderAwareLayout
        layout = LeaderAwareLayout(n)
        state = prepare_leader_aware(n)
        for outcomes, _, post in enumerate_branches(
            state, list(layout.w_qubits), [Basis.COMPUTATIONAL] * n
        ):
            winner = outcomes.index(1) + 1
            for anc, prob, _ in enumerate_branches(
                post, list(layout.ancilla_qubits), [Basis.COMPUTATIONAL] * layout.m
            ):
                assert prob == pytest.approx(1.0)
                assert decode_ancilla(anc, n) == winner


def _teleport_branches(payload: StateVector, parity: int):
    """All (q_star, g_star) branches of a teleport over the parity-matched pair."""
    pair = BELL_PHI_MINUS if parity else BELL_PHI_PLUS
    joint = tensor_product(payload, pair)  # payload q0, sender half q1, receiver q2
    joint = apply_cnot(joint, 0, 1)
    joint = apply_single(joint, 0, HADAMARD)
    return enumerate_branches(joint, [0, 1], [Basis.COMPUTATIONAL] * 2)


class TestTeleportSend:
    def test_zero_payload_identity_branch(self):
        # (q*, g*) = (0, 0) on payload |0>: receiver already holds |0>
        branches = {out: post for out, _, post in _teleport_branches(StateVector.qubit(1.0, 0.0), 0)}
        ref = product_state([(1, 0), (1, 0), (1, 0)])
        assert fidelity(branches[(0, 0)], ref) == pytest.approx(1.0)

    def test_one_payload_branches_equiprobable(self):
        branches = _teleport_branches(StateVector.qubit(0.0, 1.0), 0)
        assert len(branches) == 4
        for _, prob, _ in branches:
            assert prob == pytest.approx(0.25)

    def test_sampled_send_reports_measured_bits(self):
        payload = haar_qubit(RandomSource(11))
        joint = tensor_product(payload, BELL_PHI_PLUS)
        q_star, g_star, post = teleport_send(joint, 0, 1, RandomSource(4))
        assert q_star in (0, 1) and g_star in (0, 1)
        # measured qubits are pinned to the reported outcomes
        assert marginal_distribution(post, [0])[(q_star,)] == pytest.approx(1.0)
        assert marginal_distribution(post, [1])[(g_star,)] == pytest.approx(1.0)

    def test_coincident_qubits_rejected(self):
        joint = tensor_product(haar_qubit(RandomSource(0)), BELL_PHI_PLUS)
        with pytest.raises(ValueError, match="differ"):
            teleport_send(joint, 1, 1, RandomSource(0))


class TestTeleportReceive:
    def test_rejects_parity_that_is_not_a_bit(self):
        (_, _, post), *_ = _teleport_branches(StateVector.qubit(0.6, 0.8j), 0)
        with pytest.raises(ValueError, match="parity must be a bit"):
            teleport_receive(post, 2, 0, 0, 2)

    def test_no_correction_branch(self):
        payload = StateVector.qubit(0.6, 0.8j)
        for outcomes, _, post in _teleport_branches(payload, 0):
            if outcomes == (0, 0):
                fixed = teleport_receive(post, 2, 0, 0, 0)
                np.testing.assert_allclose(fixed.amplitudes, post.amplitudes)

    @pytest.mark.parametrize("parity", [0, 1])
    def test_all_correction_combinations(self, parity):
        # 4 measurement branches x 2 pair signs = all 8 (q*, g*, parity) cases.
        payload = StateVector.qubit(0.6, 0.8j)
        seen = set()
        for (q_star, g_star), prob, post in _teleport_branches(payload, parity):
            fixed = teleport_receive(post, 2, q_star, g_star, parity)
            ref = product_state(
                [((1, 0) if q_star == 0 else (0, 1)),
                 ((1, 0) if g_star == 0 else (0, 1)),
                 payload.amplitudes]
            )
            assert fidelity(fixed, ref) >= 1.0 - 1e-10
            seen.add((q_star, g_star, parity))
        assert len(seen) == 4

    def test_plus_payload_survives_every_branch(self):
        plus = apply_single(basis_state([0]), 0, HADAMARD)
        for parity in (0, 1):
            for (q_star, g_star), _, post in _teleport_branches(plus, parity):
                fixed = teleport_receive(post, 2, q_star, g_star, parity)
                ref = product_state(
                    [((1, 0) if q_star == 0 else (0, 1)),
                     ((1, 0) if g_star == 0 else (0, 1)),
                     plus.amplitudes]
                )
                assert fidelity(fixed, ref) >= 1.0 - 1e-10

    @pytest.mark.parametrize("payload_seed", range(5))
    def test_haar_payloads_survive(self, payload_seed):
        payload = haar_qubit(RandomSource(payload_seed))
        for parity in (0, 1):
            for (q_star, g_star), _, post in _teleport_branches(payload, parity):
                fixed = teleport_receive(post, 2, q_star, g_star, parity)
                ref = product_state(
                    [((1, 0) if q_star == 0 else (0, 1)),
                     ((1, 0) if g_star == 0 else (0, 1)),
                     payload.amplitudes]
                )
                assert fidelity(fixed, ref) >= 1.0 - 1e-10


class TestContentionOutcome:
    def test_uplink_roles(self):
        outcome = ContentionOutcome(SlotType.UPLINK, 3)
        assert (outcome.transmitter, outcome.receiver, outcome.winner) == (3, 0, 3)

    def test_downlink_roles(self):
        outcome = ContentionOutcome(SlotType.DOWNLINK, 3)
        assert (outcome.transmitter, outcome.receiver, outcome.winner) == (0, 3, 3)

    def test_rejects_slot_type_strings(self):
        with pytest.raises(ValueError, match="'uplink'"):
            ContentionOutcome("uplink", 1)

    @pytest.mark.parametrize("slot_type", list(SlotType))
    def test_rejects_the_orchestrator_as_winner(self, slot_type):
        with pytest.raises(ValueError, match="orchestrator"):
            ContentionOutcome(slot_type, 0)


class TestMessageHelpers:
    @pytest.mark.parametrize("slot_type", list(SlotType))
    def test_slot_messages_address_reports_and_not_the_broadcast(self, slot_type):
        reports = [
            ClassicalMessage(2, 0, EndNodeReport(g=1, q=0)),
            ClassicalMessage(1, 0, EndNodeReport(g=0, q=1)),
        ]
        broadcast = [ClassicalMessage(0, None, OrchestratorBroadcast(q_star=1, g0=0, parity=1))]
        expected = reports + (broadcast if slot_type is SlotType.DOWNLINK else [])
        assert slot_messages(slot_type, {2: (1, 0), 1: (0, 1)}, 1, 0, 1) == tuple(expected)

    def test_bit_accounting(self):
        msgs = [
            ClassicalMessage(1, 0, EndNodeReport(0, 1)),
            ClassicalMessage(0, None, OrchestratorBroadcast(1, 0, 1)),
        ]
        assert message_bits(msgs) == 5
        assert message_shape(msgs) == ((1, 0, 2), (0, "broadcast", 3))


class TestUplinkSlot:
    def test_single_node_trivial_contention(self):
        report = run_uplink_slot(1, None, RandomSource(0))
        assert report.outcome.transmitter == 1
        assert report.outcome.receiver == 0
        assert report.teleport_fidelity >= 1.0 - 1e-10
        assert report.ancilla == ()

    @pytest.mark.parametrize("seed", range(20))
    def test_delivery_fidelity_every_seed(self, seed):
        report = run_uplink_slot(4, None, RandomSource(seed))
        assert report.teleport_fidelity >= 1.0 - 1e-10

    @pytest.mark.parametrize("slot_type", list(SlotType), ids=lambda st: st.value)
    def test_fixed_payloads(self, slot_type):
        payloads = [StateVector.qubit(0.0, 1.0) for _ in range(3)]
        for seed in range(5):
            report = run_slot(3, slot_type, payloads, RandomSource(seed))
            assert report.teleport_fidelity >= 1.0 - 1e-10

    def test_message_log_shape(self):
        report = run_uplink_slot(4, None, RandomSource(5))
        assert [m.sender for m in report.messages] == [1, 2, 3, 4]
        assert all(m.recipient == 0 for m in report.messages)
        assert all(isinstance(m.payload, EndNodeReport) for m in report.messages)
        assert message_bits(report.messages) == 8

    def test_ancilla_readout_names_winner(self):
        for seed in range(10):
            report = run_uplink_slot(4, None, RandomSource(seed))
            assert decode_ancilla(report.ancilla, 4) == report.outcome.winner
            assert sum(report.w_outcomes) == 1
            assert report.w_outcomes.index(1) + 1 == report.outcome.winner

    def test_losers_learn_only_their_own_bits(self):
        report = run_uplink_slot(4, None, RandomSource(9))
        winner = report.outcome.winner
        for node in range(1, 5):
            # its own W bit and its own report, no other end-node's
            assert local_view(node, report.w_outcomes[node - 1], report.messages) == (
                node, int(node == winner), (report.messages[node - 1],)
            )
            assert report.messages[node - 1].sender == node

    def test_payload_count_checked(self):
        with pytest.raises(ValueError, match="one payload per end-node"):
            run_uplink_slot(3, [StateVector.qubit(1.0, 0.0)], RandomSource(0))

    def test_payload_width_checked(self):
        payloads = [StateVector.qubit(1.0, 0.0), BELL_PHI_PLUS]
        with pytest.raises(ValueError, match="single-qubit"):
            run_slot(2, SlotType.UPLINK, payloads, RandomSource(0))


class TestDownlinkSlot:
    def test_single_node(self):
        report = run_downlink_slot(1, None, RandomSource(0))
        assert report.outcome.transmitter == 0
        assert report.outcome.receiver == 1
        assert report.teleport_fidelity >= 1.0 - 1e-10

    @pytest.mark.parametrize("seed", range(20))
    def test_delivery_fidelity_every_seed(self, seed):
        report = run_downlink_slot(4, None, RandomSource(seed))
        assert report.teleport_fidelity >= 1.0 - 1e-10

    def test_message_log_ends_with_broadcast(self):
        report = run_downlink_slot(4, None, RandomSource(3))
        assert [m.sender for m in report.messages] == [1, 2, 3, 4, 0]
        assert report.messages[-1].recipient is None
        assert isinstance(report.messages[-1].payload, OrchestratorBroadcast)
        assert message_bits(report.messages) == 11

    def test_broadcast_visible_to_every_end_node(self):
        report = run_downlink_slot(3, None, RandomSource(8))
        broadcast = report.messages[-1]
        assert broadcast.recipient is None
        for node in range(1, 4):
            _, _, seen = local_view(node, report.w_outcomes[node - 1], report.messages)
            assert seen == (report.messages[node - 1], broadcast)

    def test_role_duality_with_uplink(self):
        # Same seed, same contention branch: the selected pair is reversed.
        for seed in range(10):
            up = run_uplink_slot(4, None, RandomSource(seed))
            down = run_downlink_slot(4, None, RandomSource(seed))
            assert up.outcome.winner == down.outcome.winner
            assert up.outcome.transmitter == down.outcome.receiver
            assert up.outcome.receiver == down.outcome.transmitter


class TestLargerNetworks:
    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_sampled_delivery_up_to_eight_nodes(self, n):
        for seed in range(25):
            up = run_uplink_slot(n, None, RandomSource(seed))
            down = run_downlink_slot(n, None, RandomSource(seed))
            assert up.teleport_fidelity >= 1.0 - 1e-10
            assert down.teleport_fidelity >= 1.0 - 1e-10
            assert decode_ancilla(up.ancilla, n) == up.outcome.winner
            assert message_bits(up.messages) == 2 * n
            assert message_bits(down.messages) == 2 * n + 3

    @pytest.mark.parametrize("seed", range(2))
    def test_two_hundred_fifty_six_nodes_deliver(self, seed):
        # 266-qubit registers: only the support of each state is ever stored
        up = run_uplink_slot(256, None, RandomSource(seed))
        down = run_downlink_slot(256, None, RandomSource(seed))
        for report in (up, down):
            assert report.teleport_fidelity == pytest.approx(1.0, abs=1e-10)
            assert decode_ancilla(report.ancilla, 256) == report.outcome.winner
            assert sum(report.w_outcomes) == 1
        assert message_bits(up.messages) == 2 * 256
        assert message_bits(down.messages) == 2 * 256 + 3

    @pytest.mark.parametrize("slot_type", list(SlotType))
    def test_thousand_twenty_four_nodes_deliver(self, slot_type):
        # 1035-qubit registers; contention is one sorted walk over 1024 terms
        n = 1024
        report = run_slot(n, slot_type, None, RandomSource(0))
        winner = report.outcome.winner
        assert report.teleport_fidelity == pytest.approx(1.0, abs=1e-10)
        assert report.w_outcomes == tuple(int(node == winner) for node in range(1, n + 1))
        assert decode_ancilla(report.ancilla, n) == winner
        assert message_bits(report.messages) == 2 * n + (3 if slot_type is SlotType.DOWNLINK else 0)


class TestRandomStream:
    @pytest.mark.parametrize("slot_type", list(SlotType))
    @pytest.mark.parametrize("n", [1, 2, 5, 14, 64])
    def test_random_payloads_draw_as_haar_qubits(self, n, slot_type):
        # a slot drawing its own payloads consumes the stream exactly as n
        # haar_qubit calls followed by the slot on those payloads
        for seed in range(3):
            own = RandomSource(seed)
            drawn = run_slot(n, slot_type, None, own)
            given_rng = RandomSource(seed)
            payloads = [haar_qubit(given_rng) for _ in range(n)]
            given = run_slot(n, slot_type, payloads, given_rng)
            assert drawn == given
            assert drawn.teleport_fidelity.hex() == given.teleport_fidelity.hex()
            assert own.random() == given_rng.random()


class CountingSource(RandomSource):
    """A ``RandomSource`` that counts the uniforms taken, ``bit`` draws included."""

    def __init__(self, seed):
        super().__init__(seed)
        self.count = 0
        draw = self.random

        def counted():
            self.count += 1
            return draw()

        self.random = counted


def slot_budget(n, slot_type):
    """Uniforms one sampled slot takes: 2n payload, n W, m ancilla, n-1 loser,
    2 teleport and n-1 dummy draws, plus the downlink winner's 2 padding bits."""
    return 5 * n + ancilla_count(n) + (2 if slot_type is SlotType.DOWNLINK else 0)


BUDGET_NS = [1, 2, 3, 5, 8, 13, 14, 64, 257]


class TestDrawBudget:
    @pytest.mark.parametrize("slot_type", list(SlotType))
    @pytest.mark.parametrize("n", BUDGET_NS)
    def test_a_slot_takes_its_budget(self, n, slot_type):
        for seed in range(8):
            rng = CountingSource((n, seed))
            report = run_slot(n, slot_type, None, rng)
            assert rng.count == slot_budget(n, slot_type)
            assert report == run_slot(n, slot_type, None, RandomSource((n, seed)))

    @pytest.mark.parametrize("n", BUDGET_NS)
    def test_any_slot_replays_after_advancing_past_the_earlier_ones(self, n):
        # A trial's slots share one stream. Skipping each earlier slot's
        # budget with PCG64.advance replays a later slot's record exactly.
        slots = (SlotType.DOWNLINK, SlotType.UPLINK, SlotType.UPLINK, SlotType.DOWNLINK)
        config = SessionConfig(n=n, seed=3, slots=slots, trials=2)
        _, records = run_session(config)
        for index, record in enumerate(records):
            trial, k = divmod(index, len(slots))
            rng = RandomSource((config.seed, trial))
            rng._gen.bit_generator.advance(sum(slot_budget(n, t) for t in slots[:k]))
            assert run_slot(n, slots[k], None, rng).to_record(index) == record


class OneDraw:
    """A draw source holding one given draw."""

    def __init__(self, draw):
        self.draw = draw

    def random(self):
        return self.draw


@pytest.fixture
def flip_spy(monkeypatch):
    """Every sampled draw, through ``_sample`` in each module that binds it,
    tallied with the draws where its impossible-branch flip changed the outcome."""
    real = statevector._sample
    tally = {"draws": 0, "flips": 0}

    def spy(p0, rng):
        draw = rng.random()
        outcome = real(p0, OneDraw(draw))
        tally["draws"] += 1
        tally["flips"] += outcome != (0 if draw < p0 else 1)
        return outcome

    for module in (statevector, protocol, extraction):
        monkeypatch.setattr(module, "_sample", spy)
    return tally


class TestImpossibleBranchFlip:
    # Every sampled p0 is 0.0 or 1.0 (ancillas, W bits after a win), near
    # 1/2 (extraction, teleportation), or (n-j-1)/(n-j) before a win, so a
    # draw in [0, 1) never lands on a branch the flip has to move it off.
    @pytest.mark.parametrize("slot_type", list(SlotType))
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 13, 64, 257])
    def test_never_fires_in_a_sampled_slot(self, n, slot_type, flip_spy):
        slots = 20 if n < 64 else 4
        for seed in range(slots):
            run_slot(n, slot_type, None, RandomSource((n, seed)))
        # n W bits, m ancillas, n-1 losers and 2 teleport bits: each through the rule
        assert flip_spy["draws"] == slots * (2 * n + ancilla_count(n) + 1)
        assert flip_spy["flips"] == 0

    def test_the_spy_sees_a_flip(self, flip_spy):
        # a draw of 1.0, outside [0, 1): the W bit after node 1's win and
        # its ancilla both compare it with p0 = 1.0, and flip to 0
        assert run_contention(2, OneDraw(1.0)) == (1, (1, 0), (0,))
        assert flip_spy == {"draws": 3, "flips": 2}

    def test_never_fires_in_a_fairness_run(self, flip_spy):
        # A fairness run decides its winners by ``winners``, which no spy sees;
        # the same trials' draws, each through the rule, elect the same nodes.
        elected = [
            sample_contention(8, rng)[0] for rng in RandomSource._for_trials(5, range(2000))
        ]
        assert flip_spy == {"draws": 8 * 2000, "flips": 0}
        histogram = {node: elected.count(node) for node in range(1, 9)}
        assert histogram == fairness_experiment(8, 2000, seed=5).histogram


class FixedBits:
    """The source of a scripted slot: every ``bit()`` reads 0, and no uniform is drawn."""

    def bit(self):
        return 0

    def random(self):
        raise AssertionError("a scripted slot draws its outcomes from the script")


class Script:
    """A ``_sample`` whose outcomes are given: ``prefix``, then the likelier one.

    It records each call's (p0, outcome). An outcome whose branch weighs at
    most ``_BRANCH_EPS`` is never taken, as ``_sample`` never samples it.
    """

    def __init__(self, prefix):
        self.prefix = prefix
        self.steps = []

    def __call__(self, p0, rng):
        k = len(self.steps)
        outcome = self.prefix[k] if k < len(self.prefix) else int(p0 <= _BRANCH_EPS)
        self.steps.append((p0, outcome))
        return outcome


def wire_key(report, slot_type):
    """(winner, loser bits, q*, g*, parity) of a slot, all but the winner read off the wire."""
    winner = report.outcome.winner
    reports = {m.sender: m.payload for m in report.messages if m.payload.KIND == "report"}
    losers = tuple(reports[node].g for node in sorted(reports) if node != winner)
    if slot_type is SlotType.UPLINK:
        q_star, g_star = reports[winner].q, reports[winner].g
        parity = loser_parity(losers)
    else:
        (broadcast,) = (m.payload for m in report.messages if m.payload.KIND == "broadcast")
        q_star, g_star, parity = broadcast.q_star, broadcast.g0, broadcast.parity
    assert parity == report.parity
    return winner, losers, q_star, g_star, parity


def sampled_branch_law(n, slot_type, payload, monkeypatch):
    """The exact law of ``wire_key`` over every path of the sampled slot.

    ``_sample`` is scripted, so a depth-first search runs each path once:
    after a run, every call past the script that took outcome 0 while 1
    still weighs more than ``_BRANCH_EPS`` opens the path that takes 1
    there. A path's probability is the product of its p0 and 1 - p0 factors.
    """
    law = {}
    pending = [()]
    while pending:
        script = Script(pending.pop())
        for module in (statevector, protocol, extraction):
            monkeypatch.setattr(module, "_sample", script)
        report = run_slot(n, slot_type, [payload] * n, FixedBits())
        taken = [outcome for _, outcome in script.steps]
        for k in range(len(script.prefix), len(taken)):
            if not taken[k] and 1.0 - script.steps[k][0] > _BRANCH_EPS:
                pending.append((*taken[:k], 1))
        probability = math.prod(1.0 - p0 if o else p0 for p0, o in script.steps)
        key = wire_key(report, slot_type)
        law[key] = law.get(key, 0.0) + probability
    return law


class TestSampledBranchLaw:
    """The sampled slot's exact law of outcomes is the oracle's, to 1e-12."""

    @pytest.mark.parametrize("slot_type", list(SlotType))
    @pytest.mark.parametrize("n", range(2, 8))
    def test_matches_the_oracle(self, n, slot_type, monkeypatch):
        payload = StateVector.qubit(0.6, 0.8j)
        oracle = {}
        for b in enumerate_slot_branches(n, slot_type, payload):
            losers = tuple(b.loser_outcomes[node] for node in sorted(b.loser_outcomes))
            key = b.winner, losers, b.q_star, b.g_star, b.parity
            oracle[key] = oracle.get(key, 0.0) + b.probability
        law = sampled_branch_law(n, slot_type, payload, monkeypatch)
        assert set(law) == set(oracle)
        assert len(law) == n * 2 ** (n + 1)  # a winner, n-1 loser bits, q* and g*
        assert max(abs(law[key] - oracle[key]) for key in law) <= 1e-12
        assert abs(math.fsum(law.values()) - 1.0) <= 1e-12
        assert abs(math.fsum(oracle.values()) - 1.0) <= 1e-12


class TestDeliveredFidelity:
    @pytest.mark.parametrize("slot_type", list(SlotType))
    @pytest.mark.parametrize("n", [1, 2, 5, 14, 64])
    def test_equals_product_state_reference(self, n, slot_type, monkeypatch):
        # the embedded reference gives the very float the (n+2)-qubit
        # product_state reference gives, which perfbench's composed slot rebuilds
        checked = []

        def recorded(final, outcome, payload, loser_bits, q_star, g_star):
            got = original(final, outcome, payload, loser_bits, q_star, g_star)
            pinned = {**loser_bits, outcome.transmitter: g_star, n + 1: q_star}
            vectors = [
                ((1.0, 0.0), (0.0, 1.0))[pinned[q]] if q in pinned else payload.amplitudes
                for q in range(n + 2)
            ]
            checked.append((got.hex(), fidelity(final, product_state(vectors)).hex()))
            return got

        original = protocol.delivered_fidelity
        monkeypatch.setattr(protocol, "delivered_fidelity", recorded)
        for seed in range(10):
            report = run_slot(n, slot_type, None, RandomSource(seed))
            got, want = checked[-1]
            assert got == want == report.teleport_fidelity.hex()
        assert len(checked) == 10


@cache
def perfbench_workloads():
    """``perfbench/workloads.py``, loaded by path, writing no bytecode beside it."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


class TestBenchmarkSlot:
    """The benchmark's traced slot, built from the layers' public calls, must
    give what its untraced slot gives: the comparison its traced run makes."""

    @pytest.mark.parametrize("slot_type", ["uplink", "downlink"])
    @pytest.mark.parametrize("n", [1, 2, 3, 14, 64])
    def test_composed_slot_equals_run_slot(self, n, slot_type):
        workloads = perfbench_workloads()
        bench = workloads.SlotN14(smoke=False)
        bench.n = n
        seeds = random.Random(f"{n}-{slot_type}")
        for _ in range(100):
            seed = workloads.program_seed(seeds)
            report = bench.op1((slot_type, seed))
            composed = workloads.compose_slot(n, slot_type, seed)
            assert bench.summary(composed) == bench.summary(report)


class TestTrafficShape:
    @pytest.mark.parametrize("slot_type", [SlotType.UPLINK, SlotType.DOWNLINK])
    def test_shape_is_function_of_n_only(self, slot_type):
        shapes = set()
        winners = set()
        for seed in range(40):
            report = run_slot(3, slot_type, None, RandomSource(seed))
            shapes.add(message_shape(report.messages))
            winners.add(report.outcome.winner)
        assert len(winners) == 3
        assert len(shapes) == 1


class TestRunSlot:
    def test_rejects_slot_type_strings(self):
        with pytest.raises(ValueError, match="'downlink'"):
            run_slot(3, "downlink", None, RandomSource(0))

    @given(
        n=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        slot_type=st.sampled_from(list(SlotType)),
        theta=st.floats(min_value=0.0, max_value=math.pi),
        phi=st.floats(min_value=0.0, max_value=2 * math.pi),
    )
    @settings(max_examples=100, deadline=None)
    def test_sampled_slot_is_an_oracle_branch(self, n, seed, slot_type, theta, phi):
        payload = StateVector.qubit(
            math.cos(theta / 2), complex(math.cos(phi), math.sin(phi)) * math.sin(theta / 2)
        )
        report = run_slot(n, slot_type, [payload] * n, RandomSource(seed))
        winner = report.outcome.winner
        reports = {m.sender: m.payload for m in report.messages[:n]}
        losers_g = {node: r.g for node, r in reports.items() if node != winner}
        if slot_type is SlotType.UPLINK:
            q_star, g_star = reports[winner].q, reports[winner].g
        else:
            broadcast = report.messages[-1].payload
            q_star, g_star = broadcast.q_star, broadcast.g0
        matches = [
            b
            for b in enumerate_slot_branches(n, slot_type, payload)
            if (b.winner, b.w_outcomes, b.ancilla, b.loser_outcomes, b.q_star, b.g_star)
            == (winner, report.w_outcomes, report.ancilla, losers_g, q_star, g_star)
        ]
        assert len(matches) == 1
        assert matches[0].parity == report.parity
        assert matches[0].delivered_fidelity == pytest.approx(report.teleport_fidelity, abs=1e-12)
        # the oracle's view of each loser, given the dummy it sent, is the slot's
        for node in losers_g:
            oracle_view = matches[0].loser_view(node, reports[node].q, slot_type)
            w = report.w_outcomes[node - 1]
            assert local_view(node, w, report.messages) == oracle_view
