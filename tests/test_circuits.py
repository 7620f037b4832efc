"""Resource-state preparation, the contention circuit as CX pairs, and its text export."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from dense_states import basis_state
from entaccess import circuits
from entaccess.circuits import (
    LeaderAwareLayout,
    MAX_END_NODES,
    ancilla_count,
    circuit_lines,
    circuit_text,
    leader_aware_circuit,
    prepare_ghz,
    prepare_leader_aware,
)
from entaccess.statevector import StateVector, apply_cnot, fidelity, tensor_product

SQ2 = 1.0 / math.sqrt(2.0)


def prepare_w(n: int) -> StateVector:
    """Reference W state: equal superposition of all one-hot basis states over n qubits."""
    if n < 1:
        raise ValueError("W state needs at least one qubit")
    amp = 1.0 / math.sqrt(n)
    return StateVector(n, {1 << (n - 1 - i): amp for i in range(n)})


class TestLayout:
    @pytest.mark.parametrize("n,m", [(1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (8, 3), (9, 4)])
    def test_ancilla_count(self, n, m):
        assert ancilla_count(n) == m
        assert LeaderAwareLayout(n).m == m

    @pytest.mark.parametrize("n", [2.5, 4.0, "4"])
    def test_rejects_non_integer_n(self, n):
        with pytest.raises(ValueError, match="n must be an integer"):
            ancilla_count(n)
        with pytest.raises(ValueError, match="n must be an integer"):
            LeaderAwareLayout(n)

    def test_accepts_numpy_integers(self):
        assert ancilla_count(np.int64(5)) == 3
        assert LeaderAwareLayout(np.int32(4)) == LeaderAwareLayout(4)

    def test_qubit_indexing(self):
        layout = LeaderAwareLayout(4)
        assert layout.w_qubits == (0, 1, 2, 3)
        assert layout.ancilla_qubits == (4, 5)

    @pytest.mark.parametrize("n", [*range(1, 11), 255, 256, 257, 1023, 1024, 1025])
    def test_total_qubits_roundtrip(self, n):
        # node -> term of the n + m qubit register -> node, read from the
        # layout's W qubits and from its ancillas, where m steps at powers of two
        layout = LeaderAwareLayout(n)
        state = prepare_leader_aware(n)
        assert state.num_qubits == layout.num_qubits == n + ancilla_count(n)
        nodes = []
        for index in state.support:
            bits = format(index, f"0{layout.num_qubits}b")
            w = [bits[q] for q in layout.w_qubits]
            assert w.count("1") == 1
            nodes.append(w.index("1") + 1)
            ancilla = [int(bits[q]) for q in layout.ancilla_qubits]
            assert 1 + sum(bit << j for j, bit in enumerate(ancilla)) == nodes[-1]
        assert sorted(nodes) == list(range(1, n + 1))

    def test_ancilla_count_is_exact_at_powers_of_two(self):
        # a float log2 rounds 2**k + 1 down to k from k = 49 on
        for k in range(91):
            assert ancilla_count(2**k) == k
            assert ancilla_count(2**k + 1) == k + 1

    def test_n_over_the_limit_rejected(self):
        assert LeaderAwareLayout(MAX_END_NODES).n == MAX_END_NODES
        for n in (MAX_END_NODES + 1, 2**60 + 1):
            with pytest.raises(ValueError, match=f"over the limit of {MAX_END_NODES}"):
                LeaderAwareLayout(n)


class TestPrepareGhz:
    def test_two_qubits_is_bell(self):
        out = prepare_ghz(2)
        np.testing.assert_allclose(out.amplitudes, [SQ2, 0, 0, SQ2])

    def test_three_qubits(self):
        out = prepare_ghz(3)
        expected = np.zeros(8)
        expected[0] = expected[7] = SQ2
        np.testing.assert_allclose(out.amplitudes, expected)

    def test_five_qubits_endpoints_only(self):
        out = prepare_ghz(5)
        nonzero = np.nonzero(out.amplitudes)[0]
        np.testing.assert_array_equal(nonzero, [0, 31])
        np.testing.assert_allclose(out.amplitudes[nonzero], [SQ2, SQ2])

    def test_rejects_single_qubit(self):
        with pytest.raises(ValueError):
            prepare_ghz(1)

    @pytest.mark.parametrize("q", [np.int64(64), np.int32(3), np.uint8(70)])
    def test_numpy_integer_width(self, q):
        # a fixed-width 1 << q would wrap from 64 qubits on
        out = prepare_ghz(q)
        assert type(out.num_qubits) is int and out.num_qubits == int(q)
        assert dict(out.support) == {0: SQ2, (1 << int(q)) - 1: SQ2}

    @pytest.mark.parametrize("q", [2.0, "3"])
    def test_rejects_non_integer_width(self, q):
        with pytest.raises(ValueError, match="q must be an integer"):
            prepare_ghz(q)

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_invariant_under_label_permutation(self, q):
        amps = prepare_ghz(q).amplitudes
        for perm in itertools.permutations(range(q)):
            permuted = amps.reshape([2] * q).transpose(perm).reshape(-1)
            np.testing.assert_allclose(permuted, amps)


class TestPrepareW:
    def test_single_node_degenerates_to_one(self):
        np.testing.assert_allclose(prepare_w(1).amplitudes, [0, 1])

    def test_two_nodes(self):
        np.testing.assert_allclose(prepare_w(2).amplitudes, [0, SQ2, SQ2, 0])

    def test_four_nodes_one_hot(self):
        out = prepare_w(4)
        nonzero = np.nonzero(out.amplitudes)[0]
        np.testing.assert_array_equal(nonzero, [0b0001, 0b0010, 0b0100, 0b1000])
        np.testing.assert_allclose(out.amplitudes[nonzero], [0.5] * 4)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            prepare_w(0)


class TestLeaderAwareCircuit:
    def test_four_nodes_gate_sequence(self):
        assert tuple(leader_aware_circuit(4)) == ((1, 4), (2, 5), (3, 4), (3, 5))

    def test_single_node_is_empty(self):
        assert tuple(leader_aware_circuit(1)) == ()

    def test_five_nodes_last_node_hits_high_ancilla(self):
        from_w5 = [(c, t) for c, t in leader_aware_circuit(5) if c == 4]
        assert from_w5 == [(4, 7)]
        assert max(t for _, t in leader_aware_circuit(5)) == LeaderAwareLayout(5).num_qubits - 1

    @pytest.mark.parametrize("n", [*range(1, 9), 16, 33])
    def test_circuit_matches_direct_preparation(self, n):
        layout = LeaderAwareLayout(n)
        start = prepare_w(n)
        if layout.m:
            start = tensor_product(start, basis_state([0] * layout.m))
        simulated = start
        for control, target in leader_aware_circuit(n):
            simulated = apply_cnot(simulated, control, target)
        assert fidelity(simulated, prepare_leader_aware(n)) == pytest.approx(1.0, abs=1e-10)


class TestPrepareLeaderAware:
    def test_four_nodes_matches_known_amplitudes(self):
        out = prepare_leader_aware(4)
        expected = np.zeros(64)
        expected[0b100000] = expected[0b010010] = 0.5
        expected[0b001001] = expected[0b000111] = 0.5
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-10)

    def test_two_nodes(self):
        out = prepare_leader_aware(2)
        expected = np.zeros(8)
        expected[0b100] = expected[0b011] = SQ2
        np.testing.assert_allclose(out.amplitudes, expected)

    def test_single_node(self):
        np.testing.assert_allclose(prepare_leader_aware(1).amplitudes, [0, 1])

    @pytest.mark.parametrize("n", [46_333, MAX_END_NODES])
    def test_refuses_a_support_past_the_bit_budget(self, n):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"n={n} end-nodes would hold"):
                prepare_leader_aware(n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # refused before its indices are built

    def test_bit_budget_is_n_times_n_plus_m(self, monkeypatch):
        # the real budget, 2^31 bits, ends at n = 46,332
        budget = circuits._MAX_LEADER_AWARE_BITS
        assert budget == 2**31
        assert 46_332 * LeaderAwareLayout(46_332).num_qubits <= budget
        assert 46_333 * LeaderAwareLayout(46_333).num_qubits > budget
        # n=4 holds 4 indices of 6 bits, n=5 holds 5 of 8
        monkeypatch.setattr(circuits, "_MAX_LEADER_AWARE_BITS", 24)
        assert prepare_leader_aware(4).num_qubits == 6
        with pytest.raises(ValueError, match="would hold 40 index bits"):
            prepare_leader_aware(5)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_amplitude_pattern(self, n):
        out = prepare_leader_aware(n)
        layout = LeaderAwareLayout(n)
        nonzero = np.nonzero(out.amplitudes)[0]
        assert len(nonzero) == n
        np.testing.assert_allclose(np.abs(out.amplitudes[nonzero]), 1.0 / math.sqrt(n))
        total = layout.num_qubits
        for index in nonzero:
            bits = [(index >> (total - 1 - q)) & 1 for q in range(total)]
            w_bits, ancilla_bits = bits[: layout.n], bits[layout.n:]
            assert sum(w_bits) == 1
            node = w_bits.index(1) + 1
            code = sum(b << j for j, b in enumerate(ancilla_bits))
            assert code == node - 1


class TestGateList:
    """The CX pairs as the text gate list of ``export-circuit``."""

    def test_text_export(self):
        text = circuit_text(4)
        assert text == "QUBITS 6\nCX 1 4\nCX 2 5\nCX 3 4\nCX 3 5\n"

    @pytest.mark.parametrize("n", [1, 2, 5, 64])
    def test_lines_are_the_text(self, n):
        lines = list(circuit_lines(n))
        assert all(line.endswith("\n") and line.count("\n") == 1 for line in lines)
        assert "".join(lines) == circuit_text(n)
        assert len(lines) == 1 + len(list(leader_aware_circuit(n)))

    def test_lines_are_made_as_they_are_read(self):
        # At the end-node limit the whole text is about 0.1 GB of strings.
        head = list(itertools.islice(circuit_lines(MAX_END_NODES), 3))
        assert head == ["QUBITS 1000020\n", "CX 1 1000000\n", "CX 2 1000001\n"]

    @pytest.mark.parametrize("make", [circuit_lines, leader_aware_circuit])
    def test_n_is_checked_before_the_first_item(self, make):
        with pytest.raises(ValueError, match="at least one end-node"):
            make(0)
