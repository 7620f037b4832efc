"""Support-only primitives cross-checked against the dense reference.

Two levels. Every primitive runs on random full-support states of 1-5
qubits, the case where the support is the whole register. Then every branch
of ``enumerate_slot_branches`` for n <= 6 and both slot types is replayed
step by step on both backends: each projection must give equal
probabilities and equal post-states, and the branch's probability and
delivered fidelity must match the dense reference's.
"""

import itertools
import math
from functools import reduce

import numpy as np
import pytest

import dense_reference as ref
from dense_states import dense_state, marginal_distribution
from entaccess.circuits import (
    LeaderAwareLayout,
    leader_aware_circuit,
    prepare_ghz,
    prepare_leader_aware,
)
from entaccess.protocol import SlotType
from entaccess.session import enumerate_slot_branches
from entaccess.statevector import (
    Basis,
    Gate,
    HADAMARD,
    PAULI_X,
    PAULI_Z,
    StateVector,
    apply_cnot,
    apply_single,
    enumerate_branches,
    fidelity,
    product_state,
    tensor_product,
)

TOL = 1e-12
PAYLOAD = (0.6, 0.8j)


def random_amps(n: int, gen: np.random.Generator) -> np.ndarray:
    amps = gen.normal(size=1 << n) + 1j * gen.normal(size=1 << n)
    return amps / np.linalg.norm(amps)


def random_gate(gen: np.random.Generator) -> Gate:
    q, _ = np.linalg.qr(gen.normal(size=(2, 2)) + 1j * gen.normal(size=(2, 2)))
    return Gate("U", q)


def full_support_states():
    """(n, seed, state) for random states whose support is the whole register."""
    for n in range(1, 6):
        for seed in range(3):
            state = dense_state(n, random_amps(n, np.random.default_rng([n, seed])))
            assert len(state.support) == 1 << n
            yield n, seed, state


class TestPrimitivesOnFullSupport:
    def test_apply_single(self):
        for n, seed, state in full_support_states():
            gates = (HADAMARD, PAULI_X, PAULI_Z, random_gate(np.random.default_rng(seed)))
            for qubit, gate in itertools.product(range(n), gates):
                np.testing.assert_allclose(
                    apply_single(state, qubit, gate).amplitudes,
                    ref.single(state.amplitudes, n, qubit, gate.matrix),
                    atol=TOL,
                )

    def test_apply_cnot(self):
        for n, _, state in full_support_states():
            for control, target in itertools.permutations(range(n), 2):
                np.testing.assert_allclose(
                    apply_cnot(state, control, target).amplitudes,
                    ref.cnot(state.amplitudes, n, control, target),
                )

    @pytest.mark.parametrize("hadamard", [False, True], ids=["computational", "hadamard"])
    def test_projection(self, hadamard):
        # the Hadamard basis as H on both backends, then the computational projection
        for n, _, state in full_support_states():
            for qubit in range(n):
                measured, rotated = state, state.amplitudes
                if hadamard:
                    measured = apply_single(state, qubit, HADAMARD)
                    rotated = ref.single(rotated, n, qubit, ref.H)
                branches = enumerate_branches(measured, [qubit], [Basis.COMPUTATIONAL])
                assert [out for out, _, _ in branches] == [(0,), (1,)]
                for (outcome,), prob, post in branches:
                    want_prob, want_post = ref.project(rotated, n, qubit, outcome)
                    assert prob == pytest.approx(want_prob, abs=TOL)
                    np.testing.assert_allclose(post.amplitudes, want_post, atol=TOL)

    def test_tensor_product(self):
        gen = np.random.default_rng(11)
        for na, nb in itertools.product(range(1, 4), range(1, 3)):
            a = dense_state(na, random_amps(na, gen))
            b = dense_state(nb, random_amps(nb, gen))
            out = tensor_product(a, b)
            assert out.num_qubits == na + nb
            np.testing.assert_allclose(out.amplitudes, np.kron(a.amplitudes, b.amplitudes))

    def test_product_state(self):
        gen = np.random.default_rng(12)
        for n in range(1, 6):
            pairs = [random_amps(1, gen) for _ in range(n)]
            np.testing.assert_allclose(
                product_state(pairs).amplitudes, reduce(np.kron, pairs), atol=TOL
            )

    def test_fidelity(self):
        gen = np.random.default_rng(13)
        for n, _, state in full_support_states():
            other = dense_state(n, random_amps(n, gen))
            assert fidelity(state, other) == pytest.approx(
                ref.fidelity(state.amplitudes, other.amplitudes), abs=TOL
            )

    def test_marginal_distribution(self):
        for n, _, state in full_support_states():
            for k in range(1, n + 1):
                for qubits in itertools.permutations(range(n), k):
                    got = marginal_distribution(state, list(qubits))
                    want = ref.marginal(state.amplitudes, n, list(qubits))
                    assert list(got) == sorted(want)
                    for key, p in want.items():
                        assert got[key] == pytest.approx(p, abs=TOL)


class _Sparse:
    """The simulator's own primitives, projections through enumerate_branches."""

    gates = {"H": HADAMARD, "X": PAULI_X, "Z": PAULI_Z}

    def leader_aware(self, n):
        return prepare_leader_aware(n)

    def ghz(self, q):
        return prepare_ghz(q)

    def payload(self):
        return StateVector.qubit(*PAYLOAD)

    def single(self, state, qubit, name):
        return apply_single(state, qubit, self.gates[name])

    def cnot(self, state, control, target):
        return apply_cnot(state, control, target)

    def project(self, state, qubit, outcome):
        for (out,), prob, post in enumerate_branches(state, [qubit], [Basis.COMPUTATIONAL]):
            if out == outcome:
                return prob, post
        raise AssertionError(f"branch {qubit} -> {outcome} was omitted")

    def tensor(self, a, b):
        return tensor_product(a, b)

    def product(self, pairs):
        return product_state(pairs)

    def fidelity(self, state, reference):
        return fidelity(state, reference)

    def dense(self, state):
        return state.amplitudes


class _Dense:
    """The dense reference, with resources built independently of circuits.py."""

    gates = {"H": ref.H, "X": ref.X, "Z": ref.Z}

    def leader_aware(self, n):
        # W state over the end-nodes' qubits, ancillas |0...0>, then the CNOT chain
        layout = LeaderAwareLayout(n)
        total = layout.num_qubits
        amps = np.zeros(1 << total, dtype=complex)
        for qubit in layout.w_qubits:
            amps[1 << (total - 1 - qubit)] = 1.0 / math.sqrt(n)
        for control, target in leader_aware_circuit(n):
            amps = ref.cnot(amps, total, control, target)
        return total, amps

    def ghz(self, q):
        amps = np.zeros(1 << q, dtype=complex)
        amps[0] = amps[-1] = ref.SQ2
        return q, amps

    def payload(self):
        return 1, np.array(PAYLOAD, dtype=complex)

    def single(self, state, qubit, name):
        n, amps = state
        return n, ref.single(amps, n, qubit, self.gates[name])

    def cnot(self, state, control, target):
        n, amps = state
        return n, ref.cnot(amps, n, control, target)

    def project(self, state, qubit, outcome):
        n, amps = state
        prob, post = ref.project(amps, n, qubit, outcome)
        return prob, (n, post)

    def tensor(self, a, b):
        return a[0] + b[0], np.kron(a[1], b[1])

    def product(self, pairs):
        return len(pairs), reduce(np.kron, [np.asarray(p, dtype=complex) for p in pairs])

    def fidelity(self, state, reference):
        return ref.fidelity(state[1], reference[1])

    def dense(self, state):
        return state[1]


def replay_branch(backend, n: int, slot_type: SlotType, branch):
    """Walk one enumerated branch; returns ((probability, post-state) per step, fidelity)."""
    layout = LeaderAwareLayout(n)
    steps = []

    def project(state, qubit, outcome):
        prob, post = backend.project(state, qubit, outcome)
        steps.append((prob, backend.dense(post)))
        return post

    lam = backend.leader_aware(n)
    for qubit, outcome in zip(layout.w_qubits, branch.w_outcomes):
        lam = project(lam, qubit, outcome)
    for qubit, outcome in zip(layout.ancilla_qubits, branch.ancilla):
        lam = project(lam, qubit, outcome)

    ghz = backend.ghz(n + 1)
    for loser in branch.loser_outcomes:
        ghz = backend.single(ghz, loser, "H")
    for loser, outcome in branch.loser_outcomes.items():
        ghz = project(ghz, loser, outcome)

    uplink = slot_type is SlotType.UPLINK
    send, recv = (branch.winner, 0) if uplink else (0, branch.winner)
    joint = backend.tensor(ghz, backend.payload())
    joint = backend.cnot(joint, n + 1, send)
    joint = backend.single(joint, n + 1, "H")
    joint = project(joint, n + 1, branch.q_star)
    joint = project(joint, send, branch.g_star)
    if branch.g_star:
        joint = backend.single(joint, recv, "X")
    if branch.q_star ^ branch.parity:
        joint = backend.single(joint, recv, "Z")
    steps.append((1.0, backend.dense(joint)))

    pinned = dict(branch.loser_outcomes)
    pinned[send] = branch.g_star
    pinned[n + 1] = branch.q_star
    pairs = [PAYLOAD if q == recv else ((1.0, 0.0), (0.0, 1.0))[pinned[q]] for q in range(n + 2)]
    return steps, backend.fidelity(joint, backend.product(pairs))


@pytest.mark.parametrize("slot_type", list(SlotType))
@pytest.mark.parametrize("n", range(1, 7))
def test_every_slot_branch_matches_dense_reference(n, slot_type):
    branches = enumerate_slot_branches(n, slot_type, StateVector.qubit(*PAYLOAD))
    total = 0.0
    for branch in branches:
        sparse_steps, sparse_fid = replay_branch(_Sparse(), n, slot_type, branch)
        dense_steps, dense_fid = replay_branch(_Dense(), n, slot_type, branch)
        assert len(sparse_steps) == len(dense_steps)
        for (p_sparse, v_sparse), (p_dense, v_dense) in zip(sparse_steps, dense_steps):
            assert p_sparse == pytest.approx(p_dense, abs=TOL)
            np.testing.assert_allclose(v_sparse, v_dense, atol=TOL)
        prob = math.prod(p for p, _ in dense_steps)
        assert branch.probability == pytest.approx(prob, abs=TOL)
        assert branch.delivered_fidelity == pytest.approx(dense_fid, abs=1e-10)
        assert sparse_fid == pytest.approx(dense_fid, abs=1e-10)
        assert dense_fid == pytest.approx(1.0, abs=1e-10)
        total += prob
    # the enumerated branches carry all of the dense reference's probability
    assert total == pytest.approx(1.0, abs=1e-10)
