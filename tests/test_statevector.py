"""Simulator core: gates, measurement, branch enumeration, and queries.

Gate application is cross-checked against an independent oracle that builds
the full 2^n x 2^n unitary with explicit Kronecker products and multiplies
it out. Sampled measurement is checked against exhaustive branch
probabilities at binomial 3-sigma bounds.
"""

import itertools
import math
import pickle
from bisect import bisect_left
from dataclasses import FrozenInstanceError
from functools import reduce
from itertools import accumulate
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reference as ref
from dense_states import basis_state, dense_state, marginal_distribution
import entaccess.statevector
from entaccess.circuits import LeaderAwareLayout, prepare_ghz, prepare_leader_aware
from entaccess.statevector import (
    _BRANCH_EPS,
    _DRAW_BLOCK,
    MAX_DENSE_QUBITS,
    Basis,
    Gate,
    HADAMARD,
    PAULI_X,
    PAULI_Z,
    RandomSource,
    StateVector,
    apply_cnot,
    apply_single,
    embed,
    enumerate_branches,
    fidelity,
    haar_qubit,
    measure,
    product_state,
    tensor_product,
    _index_with,
    _sample_branch,
    _state,
    _zero_branch,
)

SQ2 = 1.0 / math.sqrt(2.0)
IDENTITY = Gate("I", np.eye(2))


def bit_by_bit_index(num_qubits: int, qubits) -> int:
    """The reference index: one ``|= 1 << (num_qubits - 1 - q)`` per qubit, O(n) each."""
    index = 0
    for q in qubits:
        index |= 1 << (num_qubits - 1 - q)
    return index


# Every register up to 64 qubits, then two wide ones (4099 is prime).
WIDTHS = [*range(1, 65), 1024, 4099]


def bell_plus() -> StateVector:
    return dense_state(2, np.array([SQ2, 0, 0, SQ2]))


def bell_minus() -> StateVector:
    return dense_state(2, np.array([SQ2, 0, 0, -SQ2]))


def ghz(n: int) -> StateVector:
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = amps[-1] = SQ2
    return dense_state(n, amps)


def w_state(n: int) -> StateVector:
    amps = np.zeros(1 << n, dtype=complex)
    for i in range(n):
        amps[1 << (n - 1 - i)] = 1.0 / math.sqrt(n)
    return dense_state(n, amps)


def random_state(n: int, seed: int) -> StateVector:
    gen = np.random.default_rng(seed)
    amps = gen.normal(size=1 << n) + 1j * gen.normal(size=1 << n)
    return dense_state(n, amps / np.linalg.norm(amps))


def kron_oracle(state: StateVector, per_qubit: list[np.ndarray]) -> np.ndarray:
    """Independent route: full tensor-product unitary times the amplitude vector."""
    full = reduce(np.kron, per_qubit)
    return full @ state.amplitudes


class TestStateVector:
    def test_basis_state(self):
        s = basis_state([0, 1])
        assert s.num_qubits == 2
        np.testing.assert_allclose(s.amplitudes, [0, 1, 0, 0])

    def test_qubit_constructor(self):
        s = StateVector.qubit(0.6, 0.8j)
        np.testing.assert_allclose(s.amplitudes, [0.6, 0.8j])

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            StateVector(1, {0: 1.0, 1: 1.0})
        # a NaN norm compares false against any tolerance
        with pytest.raises(ValueError, match="nan"):
            StateVector(1, {0: math.nan})
        with pytest.raises(ValueError, match="nan"):
            StateVector.qubit(math.nan, 0.0)

    @pytest.mark.parametrize("n", [np.int64(64), np.int16(3), np.uint64(100)])
    def test_numpy_integer_width(self, n):
        s = StateVector(n, {(1 << int(n)) - 1: 1.0})
        assert type(s.num_qubits) is int and s.num_qubits == int(n)
        assert StateVector(n, {0: 1.0}) == StateVector(int(n), {0: 1.0})

    @pytest.mark.parametrize("n", [2.0, "2", None])
    def test_rejects_non_integer_width(self, n):
        with pytest.raises(ValueError, match="num_qubits must be an integer"):
            StateVector(n, {0: 1.0})

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_empty_register(self, n):
        with pytest.raises(ValueError, match="at least one qubit"):
            StateVector(n, {})

    def test_amplitude_count_is_power_of_two(self):
        s = random_state(5, seed=0)
        assert len(s.amplitudes) == 2**5


class TestValueType:
    """``StateVector`` is a frozen, slotted dataclass over ``(num_qubits, support)``."""

    def test_is_a_frozen_slotted_dataclass(self):
        assert StateVector.__dataclass_params__.frozen
        assert StateVector.__slots__ == ("num_qubits", "_support")

    def test_repr_names_only_the_width(self):
        assert repr(ghz(3)) == "StateVector(num_qubits=3)"

    def test_equality_compares_width_and_support(self):
        assert StateVector(2, {0b11: SQ2, 0b00: SQ2}) == bell_plus()
        assert bell_plus() != bell_minus()
        assert StateVector(1, {0: 1.0}) != StateVector(2, {0: 1.0})

    def test_not_equal_to_other_types(self):
        assert bell_plus() != "bell_plus"
        assert bell_plus().__eq__("bell_plus") is NotImplemented

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(bell_plus())

    @pytest.mark.parametrize("name", ["num_qubits", "_support"])
    def test_fields_are_frozen(self, name):
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(bell_plus(), name, 1)


@pytest.fixture
def validations(monkeypatch):
    """Count ``StateVector.__post_init__`` calls, as the benchmark tracer's hook does."""
    calls = []
    post_init = StateVector.__post_init__

    def counted(state):
        post_init(state)
        calls.append(state.num_qubits)

    monkeypatch.setattr(StateVector, "__post_init__", counted)
    return calls


class TestValidationHook:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: StateVector(2, {0b01: 1.0}),
            lambda: StateVector.qubit(0.6, 0.8j),
            lambda: product_state([(1.0, 0.0), (SQ2, SQ2)]),
            lambda: prepare_ghz.cache_clear() or prepare_ghz(4),
            lambda: prepare_leader_aware(5),
        ],
        ids=["init", "qubit", "product_state", "prepare_ghz", "prepare_leader_aware"],
    )
    def test_public_construction_validates_once(self, validations, build):
        build()
        assert len(validations) == 1

    def test_ghz_is_built_once_per_size(self, validations):
        prepare_ghz.cache_clear()
        ghz = prepare_ghz(4)
        assert prepare_ghz(4) is ghz and prepare_ghz(np.int64(4)) == ghz
        assert validations == [4, 4]  # one build for the int, one for numpy's
        with pytest.raises(ValueError, match="integer"):
            prepare_ghz(4.0)

    @pytest.mark.parametrize(
        "derive",
        [
            lambda s: apply_single(s, 0, HADAMARD),
            lambda s: apply_cnot(s, 0, 4),
            lambda s: measure(s, 1, RandomSource(0)),
            lambda s: measure_sequence(s, [0, 1, 2, 3], RandomSource(0)),
            lambda s: tensor_product(s, s),
            lambda s: embed(s, [6, 5, 4, 3, 2, 1], 7, {0: 1}),
            lambda s: pickle.loads(pickle.dumps(s)),
        ],
        ids=[
            "apply_single", "apply_cnot", "measure", "measure_sequence",
            "tensor_product", "embed", "pickle",
        ],
    )
    def test_derived_states_skip_validation(self, validations, derive):
        state = prepare_leader_aware(4)
        validations.clear()
        derive(state)
        assert validations == []


class TestGates:
    @pytest.mark.parametrize("gate", [IDENTITY, HADAMARD, PAULI_X, PAULI_Z])
    def test_constant_gates_unitary(self, gate):
        m = np.array(gate.matrix)
        np.testing.assert_allclose(m.conj().T @ m, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("gate", [HADAMARD, PAULI_X, PAULI_Z])
    def test_matrix_is_rows_of_python_complex(self, gate):
        # the values a numpy matrix's tolist() gives, so products stay bit-identical
        rows = {"H": [[SQ2, SQ2], [SQ2, -SQ2]], "X": [[0, 1], [1, 0]], "Z": [[1, 0], [0, -1]]}
        assert type(gate.matrix) is tuple and all(type(row) is tuple for row in gate.matrix)
        assert all(type(x) is complex for row in gate.matrix for x in row)
        assert gate.matrix == tuple(map(tuple, np.array(rows[gate.name], dtype=complex).tolist()))

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="not unitary"):
            Gate("bad", np.array([[1.0, 1.0], [0.0, 1.0]]))

    @pytest.mark.parametrize(
        "matrix, message",
        [
            (((1.000004, 0), (0, 1)), "not unitary"),
            (((1 + 1e-10, 0), (0, 1)), "not unitary"),
            (((1, 1e-10), (0, 1)), "not unitary"),
            (np.eye(3), "2x2"),
            ((1, 0, 0, 1), "2x2"),
        ],
        ids=["diagonal-4e-6", "diagonal-1e-10", "off-diagonal-1e-10", "3x3", "flat"],
    )
    def test_unitarity_tolerance_is_absolute(self, matrix, message):
        # M^dagger M - I entry by entry against UNITARY_TOL = 1e-12, with no
        # relative term: 1.000004 on the diagonal would be a norm drift of 8e-6
        with pytest.raises(ValueError, match=message):
            Gate("bad", matrix)

    def test_unitaries_pass(self):
        for gate in (HADAMARD, PAULI_X, PAULI_Z):
            assert Gate(gate.name, gate.matrix).matrix == gate.matrix
        assert Gate("I", np.eye(2)).matrix == ((1, 0), (0, 1))
        gen = np.random.default_rng(0)
        for _ in range(200):  # as test_dense_reference's random gates
            q, _ = np.linalg.qr(gen.normal(size=(2, 2)) + 1j * gen.normal(size=(2, 2)))
            Gate("U", q)


class TestTensorProduct:
    def test_basis_composition(self):
        out = tensor_product(basis_state([0]), basis_state([1]))
        np.testing.assert_allclose(out.amplitudes, [0, 1, 0, 0])

    def test_bell_with_zero(self):
        out = tensor_product(bell_plus(), basis_state([0]))
        expected = np.zeros(8)
        expected[0b000] = expected[0b110] = SQ2
        np.testing.assert_allclose(out.amplitudes, expected)

    def test_payload_with_ghz_stays_normalized(self):
        payload = StateVector.qubit(0.6, 0.8j)
        out = tensor_product(payload, ghz(3))
        assert out.num_qubits == 4
        assert abs(np.sum(np.abs(out.amplitudes) ** 2) - 1.0) < 1e-10

    def test_first_argument_owns_leading_qubits(self):
        out = tensor_product(basis_state([1]), basis_state([0, 0]))
        np.testing.assert_allclose(out.amplitudes, [0, 0, 0, 0, 1, 0, 0, 0])


class TestApplySingle:
    def test_hadamard_on_zero(self):
        out = apply_single(basis_state([0]), 0, HADAMARD)
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
        out = apply_cnot(basis_state([1, 0]), 0, 1)
        np.testing.assert_allclose(out.amplitudes, [0, 0, 0, 1])

    def test_control_zero_is_noop(self):
        out = apply_cnot(basis_state([0, 0]), 0, 1)
        np.testing.assert_allclose(out.amplitudes, [1, 0, 0, 0])

    def test_reversed_indices(self):
        out = apply_cnot(basis_state([0, 1]), 1, 0)
        np.testing.assert_allclose(out.amplitudes, [0, 0, 0, 1])

    def test_chain_builds_index_tagged_w_state(self):
        # CNOT chain copying each one-hot position's binary code onto two
        # trailing ancillas: W_4 (x) |00> -> four terms, codes 00,01,10,11.
        state = tensor_product(w_state(4), basis_state([0, 0]))
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
        plus = apply_single(basis_state([0]), 0, HADAMARD)
        outcome, post = measure(plus, 0, RandomSource(3))
        assert outcome in (0, 1)
        np.testing.assert_allclose(
            post.amplitudes, [1, 0] if outcome == 0 else [0, 1], atol=1e-12
        )

    def test_hadamard_basis_on_plus_is_deterministic(self):
        plus = apply_single(basis_state([0]), 0, HADAMARD)
        for seed in range(8):
            outcome, _ = measure(apply_single(plus, 0, HADAMARD), 0, RandomSource(seed))
            assert outcome == 0

    def test_w_qubit_probability_is_one_over_n(self):
        # the post-state is renormalized by the branch weight, 1/4 or 3/4
        outcomes = set()
        for seed in range(16):
            outcome, post = measure(w_state(4), 1, RandomSource(seed))
            outcomes.add(outcome)
            expected = {0b0100: 1.0} if outcome else {i: 1 / math.sqrt(3) for i in (8, 2, 1)}
            assert post.support == pytest.approx(expected)
        assert outcomes == {0, 1}

    def test_measured_qubit_stays_pinned(self):
        outcome, post = measure(ghz(3), 0, RandomSource(5))
        assert post.num_qubits == 3
        table = marginal_distribution(post, [0])
        assert table[(outcome,)] == pytest.approx(1.0)

    def test_basis_equivalence(self):
        # A Hadamard-basis measurement, H then ``measure``, lands on a branch
        # that enumerating the rotated state gives, post-state included.
        rotated = apply_single(random_state(3, seed=9), 1, HADAMARD)
        branches = {
            out: post
            for (out,), _, post in enumerate_branches(rotated, [1], [Basis.COMPUTATIONAL])
        }
        for seed in range(6):
            out, post = measure(rotated, 1, RandomSource(seed))
            np.testing.assert_allclose(post.amplitudes, branches[out].amplitudes, atol=1e-12)

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
            measure(state, 1, rng)[0]
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
            basis_state([0, 1]), [0, 1], [Basis.COMPUTATIONAL] * 2
        )
        assert [out for out, _, _ in branches] == [(0, 1)]

    def test_duplicate_qubits_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            enumerate_branches(ghz(2), [0, 0], [Basis.COMPUTATIONAL] * 2)

    @pytest.mark.parametrize("bases", [1, 3])
    def test_one_basis_per_qubit_required(self, bases):
        with pytest.raises(ValueError, match="one basis per measured qubit"):
            enumerate_branches(ghz(2), [0, 1], [Basis.COMPUTATIONAL] * bases)

    @pytest.mark.parametrize("basis", ["hadamard", None])
    def test_only_the_computational_basis(self, basis):
        with pytest.raises(ValueError, match="one basis per measured qubit"):
            enumerate_branches(ghz(2), [0], [basis])


class TestFidelity:
    def test_self_overlap(self):
        s = random_state(3, seed=4)
        assert fidelity(s, s) == pytest.approx(1.0)

    def test_orthogonal_basis_states(self):
        assert fidelity(basis_state([0]), basis_state([1])) == 0

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
        state = tensor_product(w_state(4), basis_state([0, 0]))
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
        s = basis_state([0, 1, 0])
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

    @pytest.mark.parametrize("seed", [1.5, "3", None, (0, -1), (-1, 0), (0, 1.5), (1, 2, 3)])
    def test_non_integer_or_negative_entries_rejected(self, seed):
        with pytest.raises(ValueError):
            RandomSource(seed)

    def test_pair_keys_its_own_stream(self):
        draws = {key: RandomSource(key).random() for key in [5, (5, 0), (5, 1), (6, 0)]}
        assert len(set(draws.values())) == 4
        assert RandomSource((5, 1)).random() == draws[(5, 1)]

    @pytest.mark.parametrize("seed", [7, (7, 3)])
    def test_block_draws_are_the_scalar_stream(self, seed):
        # Over more than two blocks, with ``bit`` calls interleaved, the
        # buffered stream equals numpy's one-call-per-uniform stream.
        if isinstance(seed, tuple):
            scalar = np.random.default_rng(np.random.SeedSequence(seed[0], spawn_key=seed[1:]))
        else:
            scalar = np.random.default_rng(seed)
        rng = RandomSource(seed)
        for k in range(2 * _DRAW_BLOCK + 17):
            if k % 3 == 0:
                assert rng.bit() == (1 if float(scalar.random()) < 0.5 else 0)
            else:
                assert rng.random() == float(scalar.random())


def spawned_words(seed: int, trial: int) -> np.ndarray:
    """numpy's own PCG64 seed words for trial ``trial`` of ``seed``: the reference."""
    return np.random.SeedSequence(seed, spawn_key=(trial,)).generate_state(4, np.uint64)


def block_words(seed: int, trials: list[int]) -> list[np.ndarray]:
    """The seed words that each source of one block was seeded with."""
    sources = RandomSource._for_trials(seed, trials)
    return [rng._gen.bit_generator.seed_seq.generate_state(4, np.uint64) for rng in sources]


# Seeds of 1, 2, 4, 5 and 7 words; a seed of w > 4 words moves the hash
# constants trial words start from.
WORD_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**128 - 1, 2**128, 2**200]
# Trials of 1, 2 and 3 words.
WORD_TRIALS = [0, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 1, 2**70]


class TestTrialSeeds:
    """``RandomSource._for_trials`` derives numpy's spawned seed words a block at a time."""

    @pytest.mark.parametrize("seed", WORD_SEEDS)
    def test_words_of_wide_seeds_and_trials(self, seed):
        # One block of trials of mixed widths, and each trial as a block of one.
        expected = [spawned_words(seed, t) for t in WORD_TRIALS]
        assert all(map(np.array_equal, block_words(seed, WORD_TRIALS), expected))
        for trial, words in zip(WORD_TRIALS, expected):
            (got,) = block_words(seed, [trial])
            assert np.array_equal(got, words)
            own = RandomSource((seed, trial))._gen.bit_generator.seed_seq
            assert np.array_equal(own.generate_state(4, np.uint64), words)

    @pytest.mark.parametrize("size", [1, 2, 200])
    @pytest.mark.parametrize("seed", [5, 2**40 + 3, 2**160 + 9])
    def test_blocks_of_consecutive_trials(self, seed, size):
        first = 1000
        trials = list(range(first, first + size))
        got = block_words(seed, trials)
        assert len(got) == size
        assert all(np.array_equal(w, spawned_words(seed, t)) for t, w in zip(trials, got))

    def test_block_straddling_two_to_the_32(self):
        trials = list(range(2**32 - 3, 2**32 + 3))  # one-word trials, then two-word ones
        got = block_words(9, trials)
        assert all(np.array_equal(w, spawned_words(9, t)) for t, w in zip(trials, got))

    def test_blocks_past_the_chunk_size(self, monkeypatch):
        monkeypatch.setattr(entaccess.statevector, "_SEED_CHUNK", 3)
        trials = list(range(2**32 - 4, 2**32 + 4))
        got = block_words(2**130, trials)
        assert len(got) == 8
        assert all(np.array_equal(w, spawned_words(2**130, t)) for t, w in zip(trials, got))

    @given(st.integers(0, 2**300), st.integers(0, 2**100))
    @settings(max_examples=200, deadline=None)
    def test_any_seed_and_trial(self, seed, trial):
        (got,) = block_words(seed, [trial])
        assert np.array_equal(got, spawned_words(seed, trial))

    def test_block_streams_are_the_pair_streams(self):
        # Every source of one seed's block draws its pair's stream.
        trials = [5, 6, 0, 7, 2**33]
        sources = RandomSource._for_trials(3, trials)
        for trial, rng in zip(trials, sources, strict=True):
            scalar = np.random.default_rng(np.random.SeedSequence(3, spawn_key=(trial,)))
            draws = _DRAW_BLOCK + 3
            assert [rng.random() for _ in range(draws)] == scalar.random(draws).tolist()

    def test_sources_are_made_one_at_a_time(self):
        sources = RandomSource._for_trials(1, range(4))
        first = next(sources)
        assert first.random() == RandomSource((1, 0)).random()
        assert len(list(sources)) == 3

    @pytest.mark.parametrize("trials", [[2**32], [0, 2**32], [-1]])
    def test_numpy_refuses_a_trial_past_one_word(self, trials):
        # _trial_words takes its multi-word path on this error; numpy 1.x
        # only warned and wrapped, drawing another trial's stream.
        with pytest.raises(OverflowError):
            np.array(trials, dtype=np.uint32)

    @pytest.mark.parametrize("trials", [[-1], [2**40, -1], [3, -2**40], range(-2, 2)])
    def test_negative_trial_rejected(self, trials):
        with pytest.raises(ValueError, match="non-negative"):
            list(RandomSource._for_trials(0, trials))

    @pytest.mark.parametrize("trials", [[1.5], [0, 2.0], [2**40, 1.5], (3, "4")])
    def test_non_integer_trial_rejected(self, trials):
        # the error a pair with that trial raises, not a truncated trial's stream
        with pytest.raises(ValueError) as pair:
            RandomSource((0, trials[-1]))
        with pytest.raises(ValueError, match="seed must be a non-negative integer") as block:
            list(RandomSource._for_trials(0, trials))
        assert str(block.value) == str(pair.value)


class TestProductState:
    def test_mixed_product(self):
        out = product_state([(1.0, 0.0), (SQ2, SQ2), (0.0, 1.0)])
        expected = np.zeros(8)
        expected[0b001] = expected[0b011] = SQ2
        np.testing.assert_allclose(out.amplitudes, expected)


class TestEmbed:
    def test_numpy_integer_width(self):
        # a fixed-width top index bit wraps from 64 qubits on and merges the two terms
        bell = StateVector(2, {0b00: SQ2, 0b11: SQ2})
        out = embed(bell, [0, 1], np.int64(70), {69: 1})
        assert type(out.num_qubits) is int
        assert out == embed(bell, [0, 1], 70, {69: 1})
        assert sorted(out.support) == [1, (0b11 << 68) | 1]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_one_qubit_matches_product_state(self, n):
        rng = np.random.default_rng(n)
        for target in range(n):
            for seed in range(5):
                local = haar_qubit(RandomSource(seed))
                alpha, beta = local.amplitudes.tolist()
                pinned = {q: int(rng.integers(2)) for q in range(n) if q != target}
                got = embed(local, [target], n, pinned)
                vectors = [
                    (alpha, beta) if q == target else ((1.0, 0.0), (0.0, 1.0))[pinned[q]]
                    for q in range(n)
                ]
                want = product_state(vectors)
                assert list(got.support.items()) == list(want.support.items())

    @pytest.mark.parametrize("n", WIDTHS)
    def test_pins_give_the_bit_by_bit_index(self, n):
        rng = np.random.default_rng(n)
        local = StateVector.qubit(0.6, 0.8j)
        for target in sorted({0, n // 2, n - 1}):
            pinned = dict(enumerate(rng.integers(2, size=n).tolist()))  # the target's pin too
            base = bit_by_bit_index(n, [q for q, bit in pinned.items() if bit and q != target])
            got = embed(local, [target], n, pinned)
            assert list(got.support) == [base, base | 1 << (n - 1 - target)]

    def test_absent_qubits_are_zero_and_embedded_qubits_ignore_pins(self):
        local = basis_state([1, 0])
        got = embed(local, [3, 1], 4, {1: 1, 2: 1, 3: 0})
        assert got == basis_state([0, 0, 1, 1])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="2 register qubits for a 1-qubit state"):
            embed(StateVector.qubit(1.0, 0.0), [0, 1], 3, {})
        with pytest.raises(ValueError, match="1 register qubits for a 2-qubit state"):
            embed(bell_plus(), [0], 3, {})

    @pytest.mark.parametrize("q", [3, -1])
    def test_rejects_qubits_outside_the_register(self, q):
        local = StateVector.qubit(1.0, 0.0)
        for qubits, pinned in [([q], {}), ([0], {q: 0}), ([0], {q: 1})]:
            with pytest.raises(ValueError, match=f"qubit {q} out of range for 3 qubits"):
                embed(local, qubits, 3, pinned)

    def test_rejects_repeated_qubits(self):
        with pytest.raises(ValueError, match="distinct"):
            embed(bell_plus(), [1, 1], 3, {})


@pytest.mark.parametrize("n", WIDTHS)
def test_index_with_sets_the_bit_by_bit_index(n):
    rng = np.random.default_rng(n)
    bits = dict(enumerate(rng.integers(2, size=n).tolist()))
    assert _index_with(n, bits) == bit_by_bit_index(n, [q for q, bit in bits.items() if bit])
    assert _index_with(n, {}) == 0
    assert _index_with(n, dict.fromkeys(range(n), 1)) == (1 << n) - 1
    assert _index_with(n, {0: 0, n - 1: 1}) == 1  # a 0 bit sets nothing


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
        assert dict(basis_state([0, 1, 1]).support) == {0b011: 1.0}

    def test_from_support_matches_dense_constructor(self):
        dense = w_state(3)
        amp = 1.0 / math.sqrt(3)
        sparse = StateVector(3, {0b100: amp, 0b010: amp, 0b001: amp})
        assert sparse == dense
        np.testing.assert_allclose(sparse.amplitudes, dense.amplitudes)

    def test_from_support_validates(self):
        with pytest.raises(ValueError, match="out of range"):
            StateVector(2, {4: 1.0})
        with pytest.raises(ValueError, match="not normalized"):
            StateVector(2, {0: 1.0, 3: 1.0})

    def test_from_support_rejects_non_integer_index(self):
        with pytest.raises(ValueError, match="basis index 1.7 is not an integer"):
            StateVector(2, {1.7: 1.0})

    def test_exact_zeros_leave_the_support(self):
        out = apply_single(ghz(2), 0, HADAMARD)
        out = apply_single(out, 1, HADAMARD)  # (|00> + |11>)/sqrt2 is H(x)H-invariant
        assert sorted(out.support) == [0b00, 0b11]

    def test_tiny_amplitudes_stay_in_the_support(self):
        tiny = 1e-17
        state = dense_state(1, np.array([math.sqrt(1.0 - tiny**2), tiny]))
        assert sorted(apply_single(state, 0, PAULI_X).support) == [0, 1]
        assert sorted(apply_single(state, 0, HADAMARD).support) == [0, 1]

    def test_branch_guard_still_sees_float_noise(self):
        # a weight of 1e-34 on |0> is float noise: a draw of 0.0 samples it,
        # and the _BRANCH_EPS rule turns the outcome into the possible one
        tiny = 1e-17
        state = dense_state(1, np.array([tiny, math.sqrt(1.0 - tiny**2)]))
        rng = _FixedRandom(0.0)
        outcome, post = measure(state, 0, rng)
        assert outcome == 1
        assert sorted(post.support) == [1]

    def test_one_draw_per_measurement(self):
        rng = _FixedRandom(0.3)
        state = apply_single(random_state(3, seed=2), 1, HADAMARD)  # qubit 1 in the H basis
        for qubit in range(3):
            _, state = measure(state, qubit, rng)
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
        for state in (random_state(4, seed=3), w_state(5), basis_state([1] * 70)):
            restored = pickle.loads(pickle.dumps(state))
            assert restored == state
            assert restored.num_qubits == state.num_qubits
            with pytest.raises(AttributeError):
                restored.num_qubits = 1

    def test_wide_registers_are_cheap(self):
        # 300 qubits: a width no dense vector could hold
        ghz150 = StateVector(150, {0: SQ2, (1 << 150) - 1: SQ2})
        wide = tensor_product(basis_state([1] * 150), ghz150)
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
        state = basis_state([0] * 64)
        with pytest.raises(ValueError, match="64 qubits"):
            state.amplitudes

    def test_marginal_table_refused_over_budget(self):
        state = basis_state([0] * 64)
        with pytest.raises(ValueError, match=f"{MAX_DENSE_QUBITS + 1} qubits"):
            marginal_distribution(state, list(range(MAX_DENSE_QUBITS + 1)))
        assert marginal_distribution(state, [0, 63]) == {
            (0, 0): 1.0, (0, 1): 0.0, (1, 0): 0.0, (1, 1): 0.0
        }


def measure_sequence(
    state: StateVector, qubits: Sequence[int], rng: RandomSource
) -> tuple[tuple[int, ...], StateVector]:
    """Computational-basis measurement of ``qubits`` in order: (outcome bits, post-state).

    ``qubits`` must be a contiguous, ascending block. It draws as calling
    ``measure`` on each qubit in turn does, one uniform per qubit in order,
    and compares each draw with the same conditional p0 up to float
    rounding, so it gives that loop's outcomes and, to rounding, its
    post-state. The support is sorted once by the block's bits, so the terms
    still possible after each outcome form one range of that order: each p0
    is a ratio of prefix sums whose split point is found by bisection, and
    the state is normalised once at the end.
    """
    qubits = tuple(qubits)
    if not qubits:
        return (), state
    first, k = qubits[0], len(qubits)
    if qubits != tuple(range(first, first + k)):
        raise ValueError(f"qubits must be a contiguous ascending block, got {list(qubits)}")
    state._mask(first)  # both ends in the register, or IndexError as in ``measure``
    state._mask(qubits[-1])
    shift = state.num_qubits - 1 - qubits[-1]
    block = (1 << k) - 1
    keyed = sorted(((i >> shift) & block, abs(a) ** 2) for i, a in state._support.items())
    keys = [key for key, _ in keyed]
    cum = list(accumulate((w for _, w in keyed), initial=0.0))
    if cum[-1] <= 0.0:  # where ``measure`` would find both branches empty
        raise _zero_branch(first, 1, cum[-1])
    lo, hi, seen = 0, len(keys), 0
    outcomes = []
    for j, qubit in enumerate(qubits):
        bit = 1 << (k - 1 - j)
        split = bisect_left(keys, seen | bit, lo, hi)
        alive = cum[hi] - cum[lo]
        p0 = (cum[split] - cum[lo]) / alive
        outcome = _sample_branch(qubit, p0, (cum[hi] - cum[split]) / alive, rng)
        if outcome:
            lo, seen = split, seen | bit
        else:
            hi = split
        outcomes.append(outcome)
    root = math.sqrt(cum[hi] - cum[lo])
    support = {i: a / root for i, a in state._support.items() if (i >> shift) & block == seen}
    return tuple(outcomes), _state(state.num_qubits, support)


def measure_loop(state: StateVector, qubits, rng) -> tuple[tuple[int, ...], StateVector]:
    """The reference ``measure_sequence`` must agree with: ``measure`` on each qubit in turn."""
    outcomes = []
    for qubit in qubits:
        bit, state = measure(state, qubit, rng)
        outcomes.append(bit)
    return tuple(outcomes), state


def blocks(n: int):
    """Every contiguous, ascending, non-empty block of an n-qubit register."""
    return [list(range(a, b)) for a in range(n) for b in range(a + 1, n + 1)]


def assert_same_state(a: StateVector, b: StateVector) -> None:
    assert a.num_qubits == b.num_qubits
    assert a.support.keys() == b.support.keys()
    assert max(abs(a.support[i] - b.support[i]) for i in a.support) <= 1e-12


class TestMeasureSequence:
    def cases(self):
        """(state, block) pairs: W and leader-aware contention, random states on every block."""
        for n in range(1, 9):
            yield w_state(n), list(range(n))
        for n in range(1, 10):
            layout = LeaderAwareLayout(n)
            yield prepare_leader_aware(n), list(layout.w_qubits)
        for n in range(1, 6):
            for block in blocks(n):
                yield random_state(n, seed=10 * n + len(block)), block

    def test_matches_a_loop_of_measure(self):
        for state, block in self.cases():
            for seed in range(30):
                rng_seq, rng_loop = RandomSource(seed), RandomSource(seed)
                outcomes, post = measure_sequence(state, block, rng_seq)
                expected, loop_post = measure_loop(state, block, rng_loop)
                assert outcomes == expected
                assert_same_state(post, loop_post)
                assert rng_seq.random() == rng_loop.random()

    @pytest.mark.parametrize("n", range(2, 10))
    def test_contention_then_ancilla_readout(self, n):
        # the protocol's two calls: the W block, then the ancilla block of the post-state
        layout = LeaderAwareLayout(n)
        for seed in range(20):
            rng = RandomSource(seed)
            w, post = measure_sequence(prepare_leader_aware(n), layout.w_qubits, rng)
            ancilla, post = measure_sequence(post, layout.ancilla_qubits, rng)
            winner = w.index(1) + 1
            assert sum(w) == 1
            assert ancilla == tuple(((winner - 1) >> j) & 1 for j in range(layout.m))
            assert len(post.support) == 1
            assert abs(next(iter(post.support.values()))) == pytest.approx(1.0, abs=1e-12)

    def test_one_draw_per_qubit(self):
        rng = _FixedRandom(0.3)
        state = random_state(4, seed=2)
        measure_sequence(state, [1, 2, 3], rng)
        assert rng.draws == 3
        assert measure_sequence(state, [], rng) == ((), state)
        assert rng.draws == 3

    def test_guard_overrides_float_noise_branch(self):
        # |00> carries a 1e-34 weight: a draw of 0.0 samples it on qubit 0,
        # and the _BRANCH_EPS rule turns the outcome into the possible one
        tiny = 1e-17
        state = StateVector(2, {0b00: tiny, 0b11: math.sqrt(1.0 - tiny**2)})
        rng = _FixedRandom(0.0)
        outcomes, post = measure_sequence(state, [0, 1], rng)
        assert outcomes == (1, 1)
        assert sorted(post.support) == [0b11]
        assert rng.draws == 2
        assert outcomes == measure_loop(state, [0, 1], _FixedRandom(0.0))[0]

    @pytest.mark.parametrize("qubits", [[1, 0], [0, 2], [0, 0], [2, 1, 0], [1, 1, 2]])
    def test_rejects_non_contiguous_descending_or_duplicate(self, qubits):
        with pytest.raises(ValueError, match="contiguous ascending"):
            measure_sequence(random_state(3, seed=0), qubits, RandomSource(0))

    def test_rejects_qubits_outside_the_register(self):
        with pytest.raises(IndexError):
            measure_sequence(random_state(3, seed=0), [2, 3], RandomSource(0))

    def test_rejects_zero_branch(self):
        # a weight that underflows to 0.0: no outcome of qubit 0 is possible,
        # for measure_sequence as for measure (reachable only unchecked)
        empty = _state(2, {0b01: 1e-200})
        with pytest.raises(ValueError, match="zero-probability branch"):
            measure(empty, 0, RandomSource(0))
        with pytest.raises(ValueError, match="zero-probability branch"):
            measure_sequence(empty, [0, 1], RandomSource(0))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_dense_reference(self, n):
        # each outcome is the draw against the dense conditional p0 (with the
        # _BRANCH_EPS guard), and the post-state is the dense projection
        states = [random_state(n, seed=n), w_state(n)]
        states += [
            prepare_leader_aware(m) for m in range(1, 5) if LeaderAwareLayout(m).num_qubits == n
        ]
        for state, block, seed in itertools.product(states, blocks(n), range(5)):
            outcomes, post = measure_sequence(state, block, RandomSource(seed))
            draws = RandomSource(seed)
            amps = state.amplitudes
            expected = []
            for qubit in block:
                p0 = float(np.sum(np.abs(amps[ref.bits(n, qubit) == 0]) ** 2))
                outcome = 0 if draws.random() < p0 else 1
                if (p0 if outcome == 0 else 1.0 - p0) <= _BRANCH_EPS:
                    outcome = 1 - outcome
                _, amps = ref.project(amps, n, qubit, outcome)
                expected.append(outcome)
            assert outcomes == tuple(expected)
            np.testing.assert_allclose(post.amplitudes, amps, atol=1e-12)
