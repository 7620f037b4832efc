"""Simulator core: gates, measurement, branch enumeration, and queries.

Gate application is cross-checked against an independent oracle that builds
the full 2^n x 2^n unitary with explicit Kronecker products and multiplies
it out. Sampled measurement is checked against exhaustive branch
probabilities at binomial 3-sigma bounds.
"""

import math
import pickle
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entaccess.statevector import (
    MAX_DENSE_QUBITS,
    Basis,
    Gate,
    HADAMARD,
    IDENTITY,
    PAULI_X,
    PAULI_Z,
    RandomSource,
    StateVector,
    apply_cnot,
    apply_single,
    enumerate_branches,
    fidelity,
    haar_qubit,
    marginal_distribution,
    measure,
    product_state,
    tensor_product,
)

SQ2 = 1.0 / math.sqrt(2.0)


def bell_plus() -> StateVector:
    return StateVector(2, np.array([SQ2, 0, 0, SQ2]))


def bell_minus() -> StateVector:
    return StateVector(2, np.array([SQ2, 0, 0, -SQ2]))


def ghz(n: int) -> StateVector:
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = amps[-1] = SQ2
    return StateVector(n, amps)


def w_state(n: int) -> StateVector:
    amps = np.zeros(1 << n, dtype=complex)
    for i in range(n):
        amps[1 << (n - 1 - i)] = 1.0 / math.sqrt(n)
    return StateVector(n, amps)


def random_state(n: int, seed: int) -> StateVector:
    gen = np.random.default_rng(seed)
    amps = gen.normal(size=1 << n) + 1j * gen.normal(size=1 << n)
    return StateVector(n, amps / np.linalg.norm(amps))


def kron_oracle(state: StateVector, per_qubit: list[np.ndarray]) -> np.ndarray:
    """Independent route: full tensor-product unitary times the amplitude vector."""
    full = reduce(np.kron, per_qubit)
    return full @ state.amplitudes


class TestStateVector:
    def test_basis_state(self):
        s = StateVector.basis_state([0, 1])
        assert s.num_qubits == 2
        np.testing.assert_allclose(s.amplitudes, [0, 1, 0, 0])

    def test_qubit_constructor(self):
        s = StateVector.qubit(0.6, 0.8j)
        np.testing.assert_allclose(s.amplitudes, [0.6, 0.8j])

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="expected 4 amplitudes"):
            StateVector(2, np.array([1.0, 0.0]))

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            StateVector(1, np.array([1.0, 1.0]))
        # a NaN norm compares false against any tolerance
        with pytest.raises(ValueError, match="nan"):
            StateVector(1, [math.nan, 0.0])
        with pytest.raises(ValueError, match="nan"):
            StateVector.qubit(math.nan, 0.0)

    def test_amplitude_count_is_power_of_two(self):
        s = random_state(5, seed=0)
        assert len(s.amplitudes) == 2**5


class TestGates:
    @pytest.mark.parametrize("gate", [IDENTITY, HADAMARD, PAULI_X, PAULI_Z])
    def test_constant_gates_unitary(self, gate):
        np.testing.assert_allclose(
            gate.matrix.conj().T @ gate.matrix, np.eye(2), atol=1e-12
        )

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="not unitary"):
            Gate("bad", np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestTensorProduct:
    def test_basis_composition(self):
        out = tensor_product(StateVector.basis_state([0]), StateVector.basis_state([1]))
        np.testing.assert_allclose(out.amplitudes, [0, 1, 0, 0])

    def test_bell_with_zero(self):
        out = tensor_product(bell_plus(), StateVector.basis_state([0]))
        expected = np.zeros(8)
        expected[0b000] = expected[0b110] = SQ2
        np.testing.assert_allclose(out.amplitudes, expected)

    def test_payload_with_ghz_stays_normalized(self):
        payload = StateVector.qubit(0.6, 0.8j)
        out = tensor_product(payload, ghz(3))
        assert out.num_qubits == 4
        assert abs(np.sum(np.abs(out.amplitudes) ** 2) - 1.0) < 1e-10

    def test_first_argument_owns_leading_qubits(self):
        out = tensor_product(StateVector.basis_state([1]), StateVector.basis_state([0, 0]))
        np.testing.assert_allclose(out.amplitudes, [0, 0, 0, 0, 1, 0, 0, 0])


class TestApplySingle:
    def test_hadamard_on_zero(self):
        out = apply_single(StateVector.basis_state([0]), 0, HADAMARD)
        np.testing.assert_allclose(out.amplitudes, [SQ2, SQ2])

    def test_identity_is_noop(self):
        s = random_state(3, seed=1)
        out = apply_single(s, 1, IDENTITY)
        np.testing.assert_allclose(out.amplitudes, s.amplitudes)

    def test_hadamard_on_middle_ghz_qubit(self):
        # I (x) H (x) I on a 3-qubit GHZ state, expanded by hand:
        # (|000> + |010> + |101> - |111>) / 2
        out = apply_single(ghz(3), 1, HADAMARD)
        expected = np.zeros(8)
        expected[0b000] = expected[0b010] = expected[0b101] = 0.5
        expected[0b111] = -0.5
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)

    @pytest.mark.parametrize("qubit", [0, 1, 2, 3])
    @pytest.mark.parametrize("gate", [HADAMARD, PAULI_X, PAULI_Z])
    def test_matches_kron_oracle(self, qubit, gate):
        s = random_state(4, seed=qubit)
        out = apply_single(s, qubit, gate)
        mats = [gate.matrix if q == qubit else np.eye(2) for q in range(4)]
        np.testing.assert_allclose(out.amplitudes, kron_oracle(s, mats), atol=1e-12)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            apply_single(ghz(2), 2, HADAMARD)


class TestApplyCnot:
    def test_control_one_flips_target(self):
        out = apply_cnot(StateVector.basis_state([1, 0]), 0, 1)
        np.testing.assert_allclose(out.amplitudes, [0, 0, 0, 1])

    def test_control_zero_is_noop(self):
        out = apply_cnot(StateVector.basis_state([0, 0]), 0, 1)
        np.testing.assert_allclose(out.amplitudes, [1, 0, 0, 0])

    def test_reversed_indices(self):
        out = apply_cnot(StateVector.basis_state([0, 1]), 1, 0)
        np.testing.assert_allclose(out.amplitudes, [0, 0, 0, 1])

    def test_chain_builds_index_tagged_w_state(self):
        # CNOT chain copying each one-hot position's binary code onto two
        # trailing ancillas: W_4 (x) |00> -> four terms, codes 00,01,10,11.
        state = tensor_product(w_state(4), StateVector.basis_state([0, 0]))
        for control, target in [(1, 4), (2, 5), (3, 4), (3, 5)]:
            state = apply_cnot(state, control, target)
        expected = np.zeros(64)
        expected[0b100000] = expected[0b010010] = 0.5
        expected[0b001001] = expected[0b000111] = 0.5
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)

    def test_equal_indices_rejected(self):
        with pytest.raises(ValueError, match="must differ"):
            apply_cnot(ghz(2), 1, 1)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            apply_cnot(ghz(2), 0, 5)


class TestMeasure:
    def test_uniform_superposition_probability(self):
        plus = apply_single(StateVector.basis_state([0]), 0, HADAMARD)
        record, post = measure(plus, 0, Basis.COMPUTATIONAL, RandomSource(3))
        assert record.outcome in (0, 1)
        assert record.probability == pytest.approx(0.5)
        np.testing.assert_allclose(
            post.amplitudes, [1, 0] if record.outcome == 0 else [0, 1], atol=1e-12
        )

    def test_hadamard_basis_on_plus_is_deterministic(self):
        plus = apply_single(StateVector.basis_state([0]), 0, HADAMARD)
        for seed in range(8):
            record, _ = measure(plus, 0, Basis.HADAMARD, RandomSource(seed))
            assert record.outcome == 0
            assert record.probability == pytest.approx(1.0)

    def test_w_qubit_probability_is_one_over_n(self):
        record, _ = measure(w_state(4), 1, Basis.COMPUTATIONAL, RandomSource(0))
        expected = 0.25 if record.outcome == 1 else 0.75
        assert record.probability == pytest.approx(expected)

    def test_measured_qubit_stays_pinned(self):
        record, post = measure(ghz(3), 0, Basis.COMPUTATIONAL, RandomSource(5))
        assert post.num_qubits == 3
        table = marginal_distribution(post, [0])
        assert table[(record.outcome,)] == pytest.approx(1.0)

    def test_basis_equivalence(self):
        # Hadamard-basis measurement == H then computational, branch for branch.
        s = random_state(3, seed=9)
        for seed in range(6):
            rec_a, post_a = measure(s, 1, Basis.HADAMARD, RandomSource(seed))
            rotated = apply_single(s, 1, HADAMARD)
            rec_b, post_b = measure(rotated, 1, Basis.COMPUTATIONAL, RandomSource(seed))
            assert rec_a.outcome == rec_b.outcome
            assert rec_a.probability == pytest.approx(rec_b.probability)
            np.testing.assert_allclose(post_a.amplitudes, post_b.amplitudes, atol=1e-12)

    def test_sampled_frequencies_match_branch_probabilities(self):
        # 1e5 samples of one W-state qubit vs the exhaustive branch weight,
        # within 3 sigma of the binomial deviation.
        state = w_state(4)
        branch_probs = {
            out[0]: prob
            for out, prob, _ in enumerate_branches(state, [1], [Basis.COMPUTATIONAL])
        }
        p = branch_probs[1]
        assert p == pytest.approx(0.25)
        rng = RandomSource(123)
        samples = 100_000
        ones = sum(
            measure(state, 1, Basis.COMPUTATIONAL, rng)[0].outcome
            for _ in range(samples)
        )
        sigma = math.sqrt(samples * p * (1 - p))
        assert abs(ones - samples * p) < 3 * sigma


class TestEnumerateBranches:
    def test_bell_single_qubit(self):
        branches = enumerate_branches(bell_plus(), [0], [Basis.COMPUTATIONAL])
        probs = {out[0]: p for out, p, _ in branches}
        assert probs[0] == pytest.approx(0.5)
        assert probs[1] == pytest.approx(0.5)

    def test_w_state_is_one_hot(self):
        branches = enumerate_branches(w_state(4), [0, 1, 2, 3], [Basis.COMPUTATIONAL] * 4)
        assert len(branches) == 4
        for outcomes, prob, _ in branches:
            assert sum(outcomes) == 1
            assert prob == pytest.approx(0.25)

    def test_loser_branches_leave_bell_pairs(self):
        # After the per-node extraction rotation on a 3-qubit GHZ state,
        # conditioning on the middle (loser) qubit leaves the outer pair in
        # a Bell state whose sign tracks the loser outcome.
        worked = apply_single(ghz(3), 1, HADAMARD)
        branches = enumerate_branches(worked, [1], [Basis.COMPUTATIONAL])
        assert len(branches) == 2
        for outcomes, prob, post in branches:
            assert prob == pytest.approx(0.5)
            pair = bell_plus() if outcomes[0] == 0 else bell_minus()
            ref = np.zeros(8, dtype=complex)
            ref[outcomes[0] << 1] = pair.amplitudes[0]
            ref[(outcomes[0] << 1) | 0b101] = pair.amplitudes[3]
            assert abs(np.vdot(ref, post.amplitudes)) ** 2 == pytest.approx(1.0)

    def test_probabilities_sum_to_one(self):
        s = random_state(4, seed=21)
        branches = enumerate_branches(s, [0, 2, 3], [Basis.COMPUTATIONAL] * 3)
        assert sum(p for _, p, _ in branches) == pytest.approx(1.0, abs=1e-10)

    def test_zero_probability_branches_omitted(self):
        branches = enumerate_branches(
            StateVector.basis_state([0, 1]), [0, 1], [Basis.COMPUTATIONAL] * 2
        )
        assert [out for out, _, _ in branches] == [(0, 1)]

    def test_duplicate_qubits_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            enumerate_branches(ghz(2), [0, 0], [Basis.COMPUTATIONAL] * 2)


class TestFidelity:
    def test_self_overlap(self):
        s = random_state(3, seed=4)
        assert fidelity(s, s) == pytest.approx(1.0)

    def test_orthogonal_basis_states(self):
        assert fidelity(StateVector.basis_state([0]), StateVector.basis_state([1])) == 0

    def test_orthogonal_bell_states(self):
        assert fidelity(bell_plus(), bell_minus()) == pytest.approx(0.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            fidelity(ghz(2), ghz(3))


class TestMarginalDistribution:
    def test_ghz_single_qubit(self):
        table = marginal_distribution(ghz(3), [1])
        assert table[(0,)] == pytest.approx(0.5)
        assert table[(1,)] == pytest.approx(0.5)

    def test_index_tagged_w_ancilla_pair_is_uniform(self):
        state = tensor_product(w_state(4), StateVector.basis_state([0, 0]))
        for control, target in [(1, 4), (2, 5), (3, 4), (3, 5)]:
            state = apply_cnot(state, control, target)
        table = marginal_distribution(state, [4, 5])
        for bits in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            assert table[bits] == pytest.approx(0.25)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_w_qubit_marginal(self, n):
        table = marginal_distribution(w_state(n), [0])
        assert table[(1,)] == pytest.approx(1.0 / n)
        assert table[(0,)] == pytest.approx((n - 1) / n)

    def test_respects_requested_order(self):
        s = StateVector.basis_state([0, 1, 0])
        assert marginal_distribution(s, [1, 0])[(1, 0)] == pytest.approx(1.0)


class TestRandomSource:
    def test_same_seed_same_stream(self):
        a = RandomSource(99)
        b = RandomSource(99)
        assert [a.random() for _ in range(20)] == [b.random() for _ in range(20)]

    def test_bits_are_bits(self):
        rng = RandomSource(5)
        assert set(rng.bit() for _ in range(50)) <= {0, 1}

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            RandomSource(-1)


class TestProductState:
    def test_mixed_product(self):
        out = product_state([(1.0, 0.0), (SQ2, SQ2), (0.0, 1.0)])
        expected = np.zeros(8)
        expected[0b001] = expected[0b011] = SQ2
        np.testing.assert_allclose(out.amplitudes, expected)


class TestHaarQubit:
    def test_normalized_and_seeded(self):
        a = haar_qubit(RandomSource(7))
        b = haar_qubit(RandomSource(7))
        np.testing.assert_allclose(a.amplitudes, b.amplitudes)
        assert abs(np.sum(np.abs(a.amplitudes) ** 2) - 1.0) < 1e-12


@st.composite
def gate_sequences(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    k = draw(st.integers(min_value=1, max_value=12))
    ops = [
        (draw(st.integers(min_value=0, max_value=n - 1)),
         draw(st.sampled_from([HADAMARD, PAULI_X, PAULI_Z])))
        for _ in range(k)
    ]
    return n, seed, ops


class TestInvariants:
    @given(gate_sequences())
    @settings(max_examples=60, deadline=None)
    def test_gates_preserve_norm(self, case):
        n, seed, ops = case
        state = random_state(n, seed)
        for qubit, gate in ops:
            state = apply_single(state, qubit, gate)
        assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1.0) < 1e-10

    @given(gate_sequences())
    @settings(max_examples=60, deadline=None)
    def test_gate_then_inverse_restores_state(self, case):
        n, seed, ops = case
        original = random_state(n, seed)
        state = original
        for qubit, gate in ops:
            state = apply_single(state, qubit, gate)
        for qubit, gate in reversed(ops):
            state = apply_single(state, qubit, gate)  # H, X, Z are involutions
        assert fidelity(state, original) == pytest.approx(1.0, abs=1e-10)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_cnot_preserves_norm(self, seed):
        state = apply_cnot(random_state(3, seed), 0, 2)
        assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1.0) < 1e-10


class _FixedRandom:
    """Stand-in random source: always draws ``value`` and counts the draws."""

    def __init__(self, value: float):
        self.value = value
        self.draws = 0

    def random(self) -> float:
        self.draws += 1
        return self.value


class TestSupportStorage:
    def test_support_holds_only_nonzero_amplitudes(self):
        assert dict(ghz(3).support) == {0b000: pytest.approx(SQ2), 0b111: pytest.approx(SQ2)}
        assert dict(StateVector.basis_state([0, 1, 1]).support) == {0b011: 1.0}

    def test_from_support_matches_dense_constructor(self):
        dense = w_state(3)
        amp = 1.0 / math.sqrt(3)
        sparse = StateVector.from_support(3, {0b100: amp, 0b010: amp, 0b001: amp})
        assert sparse == dense
        np.testing.assert_allclose(sparse.amplitudes, dense.amplitudes)

    def test_from_support_validates(self):
        with pytest.raises(ValueError, match="out of range"):
            StateVector.from_support(2, {4: 1.0})
        with pytest.raises(ValueError, match="not normalized"):
            StateVector.from_support(2, {0: 1.0, 3: 1.0})

    def test_from_support_rejects_non_integer_index(self):
        with pytest.raises(ValueError, match="basis index 1.7 is not an integer"):
            StateVector.from_support(2, {1.7: 1.0})

    def test_exact_zeros_leave_the_support(self):
        out = apply_single(ghz(2), 0, HADAMARD)
        out = apply_single(out, 1, HADAMARD)  # (|00> + |11>)/sqrt2 is H(x)H-invariant
        assert sorted(out.support) == [0b00, 0b11]

    def test_tiny_amplitudes_stay_in_the_support(self):
        tiny = 1e-17
        state = StateVector(1, np.array([math.sqrt(1.0 - tiny**2), tiny]))
        assert sorted(apply_single(state, 0, PAULI_X).support) == [0, 1]
        assert sorted(apply_single(state, 0, HADAMARD).support) == [0, 1]

    def test_branch_guard_still_sees_float_noise(self):
        # a weight of 1e-34 on |0> is float noise: a draw of 0.0 samples it,
        # and the _BRANCH_EPS rule turns the outcome into the possible one
        tiny = 1e-17
        state = StateVector(1, np.array([tiny, math.sqrt(1.0 - tiny**2)]))
        rng = _FixedRandom(0.0)
        record, post = measure(state, 0, Basis.COMPUTATIONAL, rng)
        assert record.outcome == 1
        assert sorted(post.support) == [1]

    def test_one_draw_per_measurement(self):
        rng = _FixedRandom(0.3)
        state = random_state(3, seed=2)
        for qubit, basis in [(0, Basis.COMPUTATIONAL), (1, Basis.HADAMARD), (2, Basis.COMPUTATIONAL)]:
            _, state = measure(state, qubit, basis, rng)
        assert rng.draws == 3

    def test_amplitudes_view_is_read_only(self):
        amps = ghz(2).amplitudes
        with pytest.raises(ValueError):
            amps[0] = 0.0

    def test_state_is_immutable(self):
        state = ghz(2)
        with pytest.raises(AttributeError):
            state.num_qubits = 3

    def test_pickle_round_trip(self):
        for state in (random_state(4, seed=3), w_state(5), StateVector.basis_state([1] * 70)):
            restored = pickle.loads(pickle.dumps(state))
            assert restored == state
            assert restored.num_qubits == state.num_qubits
            with pytest.raises(AttributeError):
                restored.num_qubits = 1

    def test_wide_registers_are_cheap(self):
        # 300 qubits: a width no dense vector could hold
        ghz150 = StateVector.from_support(150, {0: SQ2, (1 << 150) - 1: SQ2})
        wide = tensor_product(StateVector.basis_state([1] * 150), ghz150)
        wide = apply_cnot(apply_single(wide, 0, HADAMARD), 0, 299)
        assert wide.num_qubits == 300
        assert len(wide.support) == 4
        assert fidelity(wide, wide) == pytest.approx(1.0)
        assert marginal_distribution(wide, [0, 150]) == {
            (0, 0): pytest.approx(0.25), (0, 1): pytest.approx(0.25),
            (1, 0): pytest.approx(0.25), (1, 1): pytest.approx(0.25),
        }


class TestDenseBudget:
    def test_amplitudes_refused_over_budget(self):
        state = StateVector.basis_state([0] * 64)
        with pytest.raises(ValueError, match="64 qubits"):
            state.amplitudes
        with pytest.raises(ValueError, match="64 qubits"):
            state.probabilities()

    def test_marginal_table_refused_over_budget(self):
        state = StateVector.basis_state([0] * 64)
        with pytest.raises(ValueError, match=f"{MAX_DENSE_QUBITS + 1} qubits"):
            marginal_distribution(state, list(range(MAX_DENSE_QUBITS + 1)))
        assert marginal_distribution(state, [0, 63]) == {
            (0, 0): 1.0, (0, 1): 0.0, (1, 0): 0.0, (1, 1): 0.0
        }
