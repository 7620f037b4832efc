"""Contention, ancilla decoding, teleportation, and full slot runs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entaccess.circuits import prepare_leader_aware
from entaccess.extraction import BELL_PHI_MINUS, BELL_PHI_PLUS
from entaccess.protocol import (
    ClassicalMessage,
    ContentionOutcome,
    EndNodeReport,
    OrchestratorBroadcast,
    ProtocolError,
    Role,
    SlotType,
    contend,
    decode_ancilla,
    message_bits,
    message_shape,
    run_downlink_slot,
    run_slot,
    run_uplink_slot,
    teleport_receive,
    teleport_send,
)
from entaccess.session import enumerate_slot_branches
from entaccess.statevector import (
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
        corrupted = StateVector.basis_state([0] * 6)  # all-zero W block for n=4
        with pytest.raises(ProtocolError, match="winners"):
            contend(corrupted, RandomSource(0))


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
        from entaccess.statevector import marginal_distribution
        assert marginal_distribution(post, [0])[(q_star,)] == pytest.approx(1.0)
        assert marginal_distribution(post, [1])[(g_star,)] == pytest.approx(1.0)

    def test_coincident_qubits_rejected(self):
        joint = tensor_product(haar_qubit(RandomSource(0)), BELL_PHI_PLUS)
        with pytest.raises(ValueError, match="differ"):
            teleport_send(joint, 1, 1, RandomSource(0))


class TestTeleportReceive:
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
        plus = apply_single(StateVector.basis_state([0]), 0, HADAMARD)
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
        outcome = ContentionOutcome(SlotType.UPLINK, transmitter=3, receiver=0)
        assert outcome.winner == 3
        assert outcome.role_of(3) is Role.TRANSMITTER
        assert outcome.role_of(0) is Role.RECEIVER
        assert outcome.role_of(1) is Role.LOSER

    def test_exactly_one_transmitter_receiver(self):
        outcome = ContentionOutcome(SlotType.DOWNLINK, transmitter=0, receiver=2)
        roles = [outcome.role_of(node) for node in range(5)]
        assert roles.count(Role.TRANSMITTER) == 1
        assert roles.count(Role.RECEIVER) == 1

    def test_uplink_must_receive_at_orchestrator(self):
        with pytest.raises(ValueError, match="orchestrator"):
            ContentionOutcome(SlotType.UPLINK, transmitter=1, receiver=2)

    def test_downlink_must_transmit_from_orchestrator(self):
        with pytest.raises(ValueError, match="orchestrator"):
            ContentionOutcome(SlotType.DOWNLINK, transmitter=1, receiver=0)

    def test_pair_members_differ(self):
        with pytest.raises(ValueError, match="differ"):
            ContentionOutcome(SlotType.UPLINK, transmitter=0, receiver=0)

    def test_for_slot_picks_the_pair(self):
        up = ContentionOutcome.for_slot(SlotType.UPLINK, 3)
        down = ContentionOutcome.for_slot(SlotType.DOWNLINK, 3)
        assert (up.transmitter, up.receiver) == (3, 0)
        assert (down.transmitter, down.receiver) == (0, 3)

    def test_for_slot_rejects_slot_type_strings(self):
        with pytest.raises(ValueError, match="'uplink'"):
            ContentionOutcome.for_slot("uplink", 1)

    def test_rejects_slot_type_strings(self):
        with pytest.raises(ValueError, match="'uplink'"):
            ContentionOutcome("uplink", 1, 0)


class TestMessageHelpers:
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

    def test_accepts_bare_seed(self):
        assert run_uplink_slot(2, None, 7).teleport_fidelity >= 1.0 - 1e-10

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
            assert report.local_views[node] == (
                node, int(node == winner), (report.messages[node - 1],)
            )
            assert report.messages[node - 1].sender == node

    def test_payload_count_checked(self):
        with pytest.raises(ValueError, match="one payload per end-node"):
            run_uplink_slot(3, [StateVector.qubit(1.0, 0.0)], RandomSource(0))


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
            _, _, seen = report.local_views[node]
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
        report = run_slot(n, slot_type, [payload] * n, seed)
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
        assert matches[0].delivered_fidelity == pytest.approx(report.teleport_fidelity, abs=1e-12)
        # the oracle's view of each loser, given the dummy it sent, is the slot's
        for node in losers_g:
            oracle_view = matches[0].loser_view(node, reports[node].q, slot_type)
            assert report.local_views[node] == oracle_view
