"""EPR extraction: pair selection, local rotations, loser readout, parity repair.

The exhaustive checks here enumerate every loser-outcome branch with the
simulator's branch oracle and compare the surviving pair against explicit
Bell-state references, for every choice of pair, not just those containing
the orchestrator.
"""

import itertools

import numpy as np
import pytest

from entaccess.extraction import (
    BELL_PHI_MINUS,
    BELL_PHI_PLUS,
    PSequence,
    apply_up,
    bell_pair_reference,
    build_p_sequence,
    extract_epr,
    loser_parity,
    parity_correct,
)
from entaccess import extraction, statevector
from entaccess.circuits import prepare_ghz
from entaccess.statevector import (
    HADAMARD,
    Basis,
    RandomSource,
    StateVector,
    apply_single,
    enumerate_branches,
    fidelity,
    measure,
)


def loser_walk(ghz, p, rng):
    """Reference extraction: one Hadamard-basis measurement per loser, in order,
    as H on its qubit and then ``measure``.

    ``measure`` is looked up on its module at call time, so a test can spy on it.
    """
    state = ghz
    outcomes = {}
    for qubit in p.losers:
        state = apply_single(state, qubit, HADAMARD)
        outcomes[qubit], state = statevector.measure(state, qubit, rng)
    return outcomes, state


def exact_terms(state):
    """Support in order, each amplitude as the ``float.hex`` of its two parts."""
    return [(i, a.real.hex(), a.imag.hex()) for i, a in state.support.items()]


def assert_equals_walk(ghz, p, make_rng):
    """``extract_epr`` and ``loser_walk`` agree bit for bit, down to the rng's next draw."""
    rng, walk_rng = make_rng(), make_rng()
    result = extract_epr(ghz, p, rng)
    outcomes, state = loser_walk(ghz, p, walk_rng)
    assert list(result.outcomes.items()) == list(outcomes.items())
    assert result.parity == loser_parity(outcomes.values())
    assert exact_terms(result.state) == exact_terms(state)
    assert rng.random() == walk_rng.random()
    return result


def ones_first_ghz(num_qubits):
    """``prepare_ghz``'s state with its |1...1> term stored first."""
    amp = 1.0 / np.sqrt(2.0)
    return StateVector(num_qubits, {(1 << num_qubits) - 1: amp, 0: amp})


def assert_order_free(p, seed):
    """``extract_epr`` pinned to ``loser_walk`` on ``prepare_ghz``'s state, and
    giving that result bit for bit on the copy with the |1...1> term first."""
    num_qubits = len(p)
    result = assert_equals_walk(prepare_ghz(num_qubits), p, lambda: RandomSource(seed))
    copy = extract_epr(ones_first_ghz(num_qubits), p, RandomSource(seed))
    assert list(copy.outcomes.items()) == list(result.outcomes.items())
    assert copy.parity == result.parity
    assert exact_terms(copy.state) == exact_terms(result.state)


# extraction's two p0 values on a GHZ input, alternating from the first loser
GHZ_P0S = (float.fromhex("0x1.ffffffffffffcp-2"), 0.5)


class GapDraws:
    """Draws in [0x1.ffffffffffffcp-2, 0.5), between the two p0 values extraction meets.

    A draw there is below a p0 of exactly 0.5 but not below
    0x1.ffffffffffffcp-2, so an outcome differs from the walk's wherever
    extraction compares with 0.5 in place of the walk's float p0.
    """

    DRAWS = [float.fromhex(f"0x1.ffffffffffff{d}p-2") for d in "cdef"]

    def __init__(self):
        self.count = 0

    def random(self):
        self.count += 1
        return self.DRAWS[self.count % 4]


class TestPSequence:
    def test_exactly_two_ones_required(self):
        with pytest.raises(ValueError, match="exactly two"):
            PSequence((1, 0, 0))
        with pytest.raises(ValueError, match="exactly two"):
            PSequence((1, 1, 1))

    def test_bits_only(self):
        with pytest.raises(ValueError, match="bits"):
            PSequence((2, 0, 0))

    def test_pair_and_losers(self):
        p = PSequence((0, 1, 0, 1))
        assert p.pair == (1, 3)
        assert p.losers == (0, 2)

    def test_for_pair(self):
        assert PSequence.for_pair(2, 0, 3).bits == (1, 0, 1, 0)

    @pytest.mark.parametrize("a, b", [(0, 4), (-1, 2)])
    def test_for_pair_rejects_nodes_out_of_range(self, a, b):
        with pytest.raises(ValueError, match=r"out of range 0\.\.3"):
            PSequence.for_pair(a, b, 3)

    def test_for_pair_rejects_duplicates(self):
        with pytest.raises(ValueError, match="differ"):
            PSequence.for_pair(1, 1, 3)


class TestBuildPSequence:
    def test_winner_two_of_three(self):
        assert build_p_sequence(2, 3).bits == (1, 0, 1, 0)

    def test_two_node_network(self):
        assert build_p_sequence(1, 1).bits == (1, 1)

    def test_last_node(self):
        assert build_p_sequence(4, 4).bits == (1, 0, 0, 0, 1)

    @pytest.mark.parametrize("winner", [0, 5, -1])
    def test_rejects_bad_winner(self, winner):
        with pytest.raises(ValueError):
            build_p_sequence(winner, 4)


class TestApplyUp:
    def test_middle_loser_rotation(self):
        out = apply_up(prepare_ghz(3), PSequence((1, 0, 1)))
        expected = np.zeros(8)
        expected[0b000] = expected[0b010] = expected[0b101] = 0.5
        expected[0b111] = -0.5
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)

    def test_no_losers_is_noop(self):
        ghz2 = prepare_ghz(2)
        out = apply_up(ghz2, PSequence((1, 1)))
        np.testing.assert_allclose(out.amplitudes, ghz2.amplitudes)

    def test_every_loser_branch_is_bell(self):
        p = PSequence((1, 1, 0, 0))
        worked = apply_up(prepare_ghz(4), p)
        branches = enumerate_branches(worked, p.losers, [Basis.COMPUTATIONAL] * 2)
        assert len(branches) == 4
        for outcomes, prob, post in branches:
            assert prob == pytest.approx(0.25)
            parity = outcomes[0] ^ outcomes[1]
            pinned = dict(zip(p.losers, outcomes))
            ref = bell_pair_reference(4, p.pair, pinned, minus=bool(parity))
            assert fidelity(post, ref) == pytest.approx(1.0, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="covers"):
            apply_up(prepare_ghz(3), PSequence((1, 1)))


class TestExtractEpr:
    def test_two_node_branches_follow_parity(self):
        # Scan seeds until both loser outcomes appear; each must leave the
        # matching Bell state on the (orchestrator, winner) pair.
        p = build_p_sequence(2, 2)
        seen = set()
        for seed in range(32):
            result = extract_epr(prepare_ghz(3), p, RandomSource(seed))
            g = result.outcomes[1]
            seen.add(g)
            assert result.parity == g
            ref = bell_pair_reference(3, (0, 2), {1: g}, minus=bool(g))
            assert fidelity(result.state, ref) == pytest.approx(1.0, abs=1e-10)
        assert seen == {0, 1}

    def test_no_losers_case(self):
        result = extract_epr(prepare_ghz(2), PSequence((1, 1)), RandomSource(0))
        assert result.outcomes == {}
        assert result.parity == 0
        assert fidelity(result.state, BELL_PHI_PLUS) == pytest.approx(1.0)

    def test_matches_rotate_then_measure_route(self):
        # Same seed, two formulations: Hadamard-basis readout of the raw
        # state vs explicit rotations followed by computational readout.
        p = PSequence((0, 1, 0, 1, 0))
        for seed in range(8):
            result = extract_epr(prepare_ghz(5), p, RandomSource(seed))
            rng = RandomSource(seed)
            state = apply_up(prepare_ghz(5), p)
            outcomes = {}
            for qubit in p.losers:
                outcomes[qubit], state = measure(state, qubit, rng)
            assert result.outcomes == outcomes
            np.testing.assert_allclose(result.state.amplitudes, state.amplitudes, atol=1e-12)

    def test_losers_only_measure_their_own_qubit(self, monkeypatch):
        # Locality: no gate besides the losers' own readout, least of all a
        # two-qubit one, and the result is bit for bit that of one
        # Hadamard-basis measurement per loser, on its own qubit.
        measured, gates = [], []

        def measure_spy(state, qubit, rng):
            measured.append(qubit)
            return measure(state, qubit, rng)

        def gate_spy(fn):
            def spy(state, *args):
                gates.append((fn.__name__, args))
                return fn(state, *args)
            return spy

        monkeypatch.setattr(extraction, "apply_single", gate_spy(statevector.apply_single))
        for module in (extraction, statevector):
            monkeypatch.setattr(
                module, "apply_cnot", gate_spy(statevector.apply_cnot), raising=False
            )
        monkeypatch.setattr(statevector, "measure", measure_spy)
        p = PSequence((1, 0, 0, 0, 1))
        result = assert_equals_walk(prepare_ghz(5), p, lambda: RandomSource(3))
        assert measured == list(p.losers)
        assert gates == []
        assert sorted(result.outcomes) == list(p.losers)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="covers"):
            extract_epr(prepare_ghz(4), PSequence((1, 1, 0)), RandomSource(0))


class TestExtractEprEqualsLoserWalk:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_every_pair(self, n):
        for a, b in itertools.combinations(range(n + 1), 2):
            assert_order_free(PSequence.for_pair(a, b, n), (n, a * (n + 1) + b))

    @pytest.mark.parametrize("n", [20, 64, 257, 1024])
    def test_wide_registers(self, n):
        for a, b in [(0, 1), (0, n), (n // 2, n - 1)]:
            p = PSequence.for_pair(a, b, n)
            assert_equals_walk(prepare_ghz(n + 1), p, lambda: RandomSource((n, a + b)))

    @pytest.mark.parametrize("n", [256, 1024])
    def test_257_and_1025_qubits_in_both_term_orders(self, n):
        # registers of 257 and 1025 qubits: the two-step GHZ period replayed
        # 127 and 511 times
        for a, b in [(0, 1), (0, n // 3), (0, n), (n // 2, n - 1)]:
            assert_order_free(PSequence.for_pair(a, b, n), (n, a + b))

    @pytest.mark.parametrize("n", [3, 8, 64])
    def test_draws_between_the_two_p0_values(self, n, monkeypatch):
        # A comparison with 0.5 would read every draw here as outcome 0.
        p = build_p_sequence(n, n)
        seen = []
        real = extraction._sample
        monkeypatch.setattr(extraction, "_sample", lambda p0, rng: seen.append(p0) or real(p0, rng))
        result = assert_equals_walk(prepare_ghz(n + 1), p, GapDraws)
        assert 1 in result.outcomes.values()
        # a GHZ input meets only these two p0 values, alternating
        assert seen == [GHZ_P0S[k % 2] for k in range(n - 1)]

    def test_hadamard_rows_make_the_walk_outcome_free(self):
        # the zero term is the same on both branches, and the one term only
        # changes sign, so every weight extraction compares with is one float
        (m00, m01), (m10, m11) = HADAMARD.matrix
        assert (m10.real.hex(), m10.imag.hex()) == (m00.real.hex(), m00.imag.hex())
        assert m11 == -m01 and abs(m11.real).hex() == abs(m01.real).hex()
        assert [step[0] for step in extraction._GHZ_WALK] == list(GHZ_P0S)
        # after its two steps the zero term is back at prepare_ghz's amplitude
        zero = extraction._GHZ_WALK[-1][2]
        assert (zero.real.hex(), zero.imag.hex()) == (statevector._SQ2.hex(), (0.0).hex())

    @pytest.mark.parametrize("terms", [
        {0b000: 1.0},
        {0b111: 1.0},
        {0b010: 1.0},
        {0b000: 0.5, 0b001: 0.5, 0b110: 0.5, 0b111: 0.5},
        {0b011: 0.6, 0b100: 0.8},
        # the GHZ support with other amplitudes: skewed, and GHZ-, in either term order
        {0b000: 0.6, 0b111: 0.8j},
        {0b111: 0.8j, 0b000: 0.6},
        {0b000: statevector._SQ2, 0b111: -statevector._SQ2},
        {0b111: -statevector._SQ2, 0b000: statevector._SQ2},
    ])
    def test_rejects_a_support_that_is_not_ghz(self, terms):
        with pytest.raises(ValueError, match="prepare_ghz"):
            extract_epr(StateVector(3, terms), build_p_sequence(1, 2), RandomSource(0))


@pytest.mark.parametrize("n", [*range(1, 65), 1024, 4099])
def test_pinned_losers_give_the_bit_by_bit_index(n):
    """The reference index: one ``|= 1 << (n - q)`` per outcome-1 loser."""
    for winner in sorted({1, (n + 1) // 2, n}):
        p = build_p_sequence(winner, n)
        result = extract_epr(prepare_ghz(n + 1), p, RandomSource((n, winner)))
        pinned = 0
        for q, outcome in result.outcomes.items():
            if outcome:
                pinned |= 1 << (n - q)
        pair_bits = 1 << n | 1 << (n - winner)
        assert list(result.state.support) == [pinned, pinned | pair_bits]


class TestLoserParity:
    @pytest.mark.parametrize("k", range(5))
    def test_is_the_xor_of_the_loser_bits(self, k):
        for bits in itertools.product((0, 1), repeat=k):
            assert loser_parity(bits) == sum(bits) % 2


class TestParityCorrect:
    def test_repairs_phi_minus(self):
        out = parity_correct(BELL_PHI_MINUS, 1, 0)
        assert fidelity(out, BELL_PHI_PLUS) == pytest.approx(1.0)

    def test_even_parity_is_noop(self):
        out = parity_correct(BELL_PHI_PLUS, 0, 0)
        np.testing.assert_allclose(out.amplitudes, BELL_PHI_PLUS.amplitudes)

    def test_either_pair_member_works(self):
        for qubit in (0, 1):
            out = parity_correct(BELL_PHI_MINUS, 1, qubit)
            assert fidelity(out, BELL_PHI_PLUS) == pytest.approx(1.0)

    def test_rejects_non_bit_parity(self):
        with pytest.raises(ValueError):
            parity_correct(BELL_PHI_PLUS, 2, 0)

    def test_all_branches_corrected_at_four_nodes(self):
        # Every loser outcome vector, post-correction, must give the plus pair.
        p = build_p_sequence(3, 4)
        worked = apply_up(prepare_ghz(5), p)
        branches = enumerate_branches(worked, p.losers, [Basis.COMPUTATIONAL] * 3)
        assert len(branches) == 8
        for outcomes, _, post in branches:
            parity = 0
            for g in outcomes:
                parity ^= g
            fixed = parity_correct(post, parity, p.pair[0])
            ref = bell_pair_reference(5, p.pair, dict(zip(p.losers, outcomes)))
            assert fidelity(fixed, ref) == pytest.approx(1.0, abs=1e-10)


class TestDeterministicExtraction:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_pair_every_branch(self, n):
        # Identity invariance: the pair may be any two of the n+1 nodes.
        for a, b in itertools.combinations(range(n + 1), 2):
            p = PSequence.for_pair(a, b, n)
            worked = apply_up(prepare_ghz(n + 1), p)
            branches = enumerate_branches(
                worked, p.losers, [Basis.COMPUTATIONAL] * len(p.losers)
            )
            assert len(branches) == max(1, 2 ** (n - 1))
            for outcomes, _, post in branches:
                parity = 0
                for g in outcomes:
                    parity ^= g
                pinned = dict(zip(p.losers, outcomes))
                # parity law before correction
                ref_pre = bell_pair_reference(n + 1, p.pair, pinned, minus=bool(parity))
                assert fidelity(post, ref_pre) == pytest.approx(1.0, abs=1e-10)
                # determinism after correction
                fixed = parity_correct(post, parity, p.pair[0])
                ref = bell_pair_reference(n + 1, p.pair, pinned)
                assert fidelity(fixed, ref) >= 1.0 - 1e-10


def index_arithmetic_bell_pair(num_qubits, pair, pinned, minus=False):
    """``bell_pair_reference`` built by explicit basis-index arithmetic, without ``embed``."""
    a, b = pair
    base = 0
    for qubit, bit in pinned.items():
        if bit:
            base |= 1 << (num_qubits - 1 - qubit)
    ones = (1 << (num_qubits - 1 - a)) | (1 << (num_qubits - 1 - b))
    amp = 1.0 / np.sqrt(2.0)
    return statevector.StateVector(num_qubits, {base: amp, base | ones: -amp if minus else amp})


class TestBellPairReference:
    @pytest.mark.parametrize("minus", [False, True])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_index_arithmetic(self, n, minus):
        rng = np.random.default_rng(n)
        for a, b in itertools.combinations(range(n + 1), 2):
            others = [q for q in range(n + 1) if q not in (a, b)]
            pinned = {q: int(rng.integers(2)) for q in others}
            got = bell_pair_reference(n + 1, (a, b), pinned, minus)
            want = index_arithmetic_bell_pair(n + 1, (a, b), pinned, minus)
            assert list(got.support.items()) == list(want.support.items())
