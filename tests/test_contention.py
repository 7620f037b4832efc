"""Closed-form contention: the sampled election against the state walk it replaces.

``run_contention`` samples the W outcomes and the ancilla readout without
building the leader-aware state, and ``contend`` then ``read_ancillas`` run
the same closed form on that state. Both are pinned here to the reference
walk, ``measure_sequence`` (kept in ``test_statevector``) over the W block
and then the ancilla block of ``prepare_leader_aware(n)``: same winner, W
outcomes and ancilla, the same number of draws, and the same next draw, over
seeded streams and over stub draws placed on every float boundary the walk
compares with. ``fairness_experiment`` decides a block of trials at once by
``winners``; its thresholds are pinned to the walk's p0 values bit for bit,
and its winners to ``sample_contention``'s on those boundary draws and on
seeded blocks of trials, through the worker pool too. The memory guard
checks that no sampled slot or fairness trial builds the leader-aware state
or any state of more than 8 terms, and the limit on ``n`` is checked to fail
before any work starts, in ``export-circuit`` too.
"""

import contextlib
import itertools
import math
from functools import partial

import numpy as np
import pytest
from test_statevector import measure_sequence

import entaccess.cli
from entaccess import _pool, circuits, extraction, protocol, session, statevector
from entaccess.circuits import (
    MAX_END_NODES,
    LeaderAwareLayout,
    ancilla_count,
    prepare_leader_aware,
)
from entaccess.protocol import (
    SlotType,
    contend,
    contention_thresholds,
    one_hot_winner,
    read_ancillas,
    run_contention,
    run_slot,
    sample_contention,
    winners,
)
from entaccess.session import SessionConfig, fairness_experiment
from entaccess.statevector import _SEED_CHUNK, RandomSource, StateVector, apply_cnot


class Draws:
    """A stream of given draws, counted as they are taken."""

    def __init__(self, draws):
        self._draws = iter(draws)
        self.count = 0

    def random(self):
        self.count += 1
        return next(self._draws)


def seeded(seed):
    return lambda: Draws(iter(RandomSource(seed).random, None))


def w_walk(n, rng):
    """The reference contention: ``measure_sequence`` over the W block of the built state."""
    layout = LeaderAwareLayout(n)
    w_outcomes, post = measure_sequence(prepare_leader_aware(n), layout.w_qubits, rng)
    return one_hot_winner(w_outcomes), w_outcomes, post


def state_walk(n, rng):
    """The reference: ``w_walk``, then ``measure_sequence`` over the ancilla block."""
    winner, w_outcomes, post = w_walk(n, rng)
    ancilla, _ = measure_sequence(post, LeaderAwareLayout(n).ancilla_qubits, rng)
    return winner, w_outcomes, ancilla


def state_api(n, rng):
    """``contend`` then ``read_ancillas`` on the built state."""
    winner, w_outcomes, post = contend(prepare_leader_aware(n), rng)
    ancilla, _ = read_ancillas(post, LeaderAwareLayout(n), rng)
    return winner, w_outcomes, ancilla


def assert_pinned(n, make_draws):
    """Every closed-form call equals the state walk, down to the draws taken and the next one."""
    for closed_form in (run_contention, state_api):
        rng, ref_rng = make_draws(), make_draws()
        assert closed_form(n, rng) == state_walk(n, ref_rng)
        assert rng.count == ref_rng.count == n + ancilla_count(n)
        assert rng.random() == ref_rng.random()

    rng, ref_rng = make_draws(), make_draws()
    assert sample_contention(n, rng) == w_walk(n, ref_rng)[:2]
    assert rng.count == ref_rng.count == n
    assert rng.random() == ref_rng.random()


def walk_thresholds(n, monkeypatch):
    """The p0 of each W draw the state walk makes while no node has won, in order."""
    seen = []
    real = statevector._sample
    with monkeypatch.context() as patch:
        patch.setattr(statevector, "_sample", lambda p0, rng: seen.append(p0) or real(p0, rng))
        state_walk(n, Draws(itertools.repeat(0.0)))  # a draw of 0 loses until the last node
    return seen[:n]


# Draws on both sides of the p0 values 1.0 (after the winner) and 0.0 and 1.0
# (the ancillas), 1.0 itself included to exercise ``_sample``'s override.
TAIL = [math.nextafter(1.0, 0.0), 1.0, 0.0, math.nextafter(0.0, 1.0), 0.5]


def boundary_draws(position, draw):
    """Draws that lose up to ``position``, then ``draw`` there, then the ``TAIL`` cycle."""
    return lambda: Draws(itertools.chain([0.0] * position, [draw], itertools.cycle(TAIL)))


class TestPinnedToTheStateWalk:
    @pytest.mark.parametrize("n", range(1, 65))
    def test_seeded_streams(self, n):
        for seed in range(40):
            assert_pinned(n, seeded((n, seed)))

    @pytest.mark.parametrize("n", [257, 1024, 4099])
    def test_wide_registers(self, n):
        for seed in range(4):
            assert_pinned(n, seeded((n, seed)))

    @pytest.mark.parametrize("n", range(1, 65))
    def test_draws_on_every_threshold(self, n, monkeypatch):
        thresholds = walk_thresholds(n, monkeypatch)
        assert len(thresholds) == n and thresholds[-1] == 0.0
        for position, p0 in enumerate(thresholds):
            for draw in (math.nextafter(p0, 0.0), p0, math.nextafter(p0, 1.0)):
                assert_pinned(n, boundary_draws(position, draw))

    @pytest.mark.parametrize("n", [257, 1024])
    def test_draws_on_wide_thresholds(self, n, monkeypatch):
        thresholds = walk_thresholds(n, monkeypatch)
        for position in (0, 1, n // 3, n // 2, n - 2, n - 1):
            p0 = thresholds[position]
            for draw in (math.nextafter(p0, 0.0), p0, math.nextafter(p0, 1.0)):
                assert_pinned(n, boundary_draws(position, draw))

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 257])
    def test_post_state_is_the_walks(self, n):
        # the winner's one term: the walk divides by the root of a summed weight, contend writes 1
        for seed in range(10):
            _, _, post = contend(prepare_leader_aware(n), RandomSource((n, seed)))
            _, _, walk_post = w_walk(n, RandomSource((n, seed)))
            assert post.num_qubits == walk_post.num_qubits
            assert post.support.keys() == walk_post.support.keys()
            (amp,) = walk_post.support.values()
            assert list(post.support.values()) == [1.0] and abs(amp - 1.0) <= 1e-12

    def test_a_draw_at_the_threshold_wins(self, monkeypatch):
        # ``r < p0`` loses, so a draw exactly at node 1's p0 elects node 1
        p0 = walk_thresholds(4, monkeypatch)[0]
        assert run_contention(4, boundary_draws(0, p0)())[0] == 1
        assert run_contention(4, boundary_draws(0, math.nextafter(p0, 0.0))())[0] != 1


def slot_winners(n, seed, trials):
    """The reference: each trial's winner, its stream sampled through ``sample_contention``."""
    return [sample_contention(n, rng)[0] for rng in RandomSource._for_trials(seed, trials)]


class TestBlockWinners:
    @pytest.mark.parametrize("n", [*range(1, 65), 257, 1024])
    def test_thresholds_are_the_walks(self, n, monkeypatch):
        expected = walk_thresholds(n, monkeypatch)
        assert [p0.hex() for p0 in contention_thresholds(n)] == [p0.hex() for p0 in expected]

    @pytest.mark.parametrize("n", range(1, 65))
    def test_rule_on_every_threshold(self, n, monkeypatch):
        rows, expected = [], []
        for position, p0 in enumerate(walk_thresholds(n, monkeypatch)):
            for draw in (math.nextafter(p0, 0.0), p0, math.nextafter(p0, 1.0)):
                make_draws = boundary_draws(position, draw)
                expected.append(sample_contention(n, make_draws())[0])
                rows.append(list(itertools.islice(iter(make_draws().random, None), n)))
        assert winners(n, np.array(rows)).tolist() == expected

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("seed", [0, 2**32, 2**128 + 1])
    def test_blocks_of_trials(self, seed, jobs, two_cpus):
        # 655 trials fill a matrix at n=100; each process's 1,324 trials
        # straddle it twice and the seed chunk once.
        n, trials = 100, 2 * (_SEED_CHUNK + 300)
        assert session._WINNER_BLOCK // n < _SEED_CHUNK < trials // 2
        work = partial(session._contention_winners, n, seed)
        assert _pool.per_trial(work, trials, jobs) == slot_winners(n, seed, range(trials))

    def test_one_row_at_a_time_past_the_block(self):
        n = 200_000  # over _WINNER_BLOCK, so each trial is a matrix of one row
        expected = {node: 0 for node in range(1, n + 1)}
        for winner in slot_winners(n, 7, range(3)):
            expected[winner] += 1
        assert fairness_experiment(n, 3, 7).histogram == expected

    def test_thresholds_refuse_a_branch_within_eps_of_one(self, monkeypatch):
        # before a win 1 - p0 is 1/(n - j): at eps 0.2 node 1 of 8 wins with
        # 1/8, while every branch of n = 4 weighs at least 1/4
        monkeypatch.setattr(protocol, "_BRANCH_EPS", 0.2)
        contention_thresholds.cache_clear()
        assert contention_thresholds(4) == (0.75, 2 / 3, 0.5, 0.0)
        with pytest.raises(ValueError, match=r"branch: qubit 0 -> 1 \(p = 0.125\)"):
            contention_thresholds(8)

    def test_threshold_array_is_built_once_and_read_only(self):
        n = 1000
        protocol._threshold_array.cache_clear()
        rows = np.full((3, n), math.nextafter(1.0, 0.0))  # node 1 wins
        assert winners(n, rows).tolist() == winners(n, rows).tolist() == [1, 1, 1]
        assert protocol._threshold_array.cache_info().misses == 1
        array = protocol._threshold_array(n)
        assert protocol._threshold_array(n) is array and not array.flags.writeable
        assert [p0.hex() for p0 in array.tolist()] == [p0.hex() for p0 in contention_thresholds(n)]
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.5
        with pytest.raises(ValueError, match="n must be an integer, got 1000.0"):
            winners(1000.0, rows)

    def test_a_cached_size_is_still_checked(self):
        contention_thresholds(4)
        with pytest.raises(ValueError, match="n must be an integer, got 4.0"):
            contention_thresholds(4.0)


@contextlib.contextmanager
def guarded(monkeypatch, max_terms=8):
    """Fail on any call of ``prepare_leader_aware`` and on any state of more
    than ``max_terms`` terms, checked or built unchecked, while the block runs."""
    real_state = statevector._state
    post_init = StateVector.__post_init__

    def counted_state(num_qubits, support):
        assert len(support) <= max_terms, f"a state of {len(support)} terms"
        return real_state(num_qubits, support)

    def counted_post_init(state):
        post_init(state)
        assert len(state.support) <= max_terms, f"a state of {len(state.support)} terms"

    def forbidden(n):
        raise AssertionError(f"prepare_leader_aware({n}) called")

    with monkeypatch.context() as patch:
        for module in (statevector, circuits, extraction, protocol, session):
            for name, value in list(vars(module).items()):
                if value is real_state:
                    patch.setattr(module, name, counted_state)
                elif value is circuits.prepare_leader_aware:
                    patch.setattr(module, name, forbidden)
        patch.setattr(StateVector, "__post_init__", counted_post_init)
        yield


class TestMemoryGuard:
    @pytest.mark.parametrize("slot_type", list(SlotType))
    def test_a_slot_builds_no_large_state(self, monkeypatch, slot_type):
        with guarded(monkeypatch):
            report = run_slot(64, slot_type, None, RandomSource(5))
        assert report.teleport_fidelity == pytest.approx(1.0, abs=1e-10)

    def test_fairness_builds_no_state(self, monkeypatch):
        with guarded(monkeypatch, max_terms=0):
            result = fairness_experiment(64, 50, seed=5)
        assert sum(result.histogram.values()) == 50

    def test_the_guard_catches_what_it_forbids(self, monkeypatch):
        with guarded(monkeypatch), pytest.raises(AssertionError, match=r"\(64\) called"):
            circuits.prepare_leader_aware(64)
        with guarded(monkeypatch), pytest.raises(AssertionError, match="64 terms"):
            state_walk(64, RandomSource(0))  # this module's own binding of the builder
        with guarded(monkeypatch), pytest.raises(AssertionError, match="16 terms"):
            StateVector(4, {k: 0.25 for k in range(16)})
        uniform = StateVector(4, {k: 0.25 for k in range(16)})
        with guarded(monkeypatch), pytest.raises(AssertionError, match="16 terms"):
            apply_cnot(uniform, 0, 1)  # built unchecked

    @pytest.mark.parametrize("slot_type", list(SlotType))
    def test_twenty_thousand_nodes(self, slot_type):
        report = run_slot(20_000, slot_type, None, RandomSource(9))
        assert report.teleport_fidelity == pytest.approx(1.0, abs=1e-10)
        assert len(report.w_outcomes) == 20_000 and sum(report.w_outcomes) == 1


class TestEndNodeLimit:
    @pytest.mark.parametrize(
        "call",
        [
            lambda n: run_slot(n, SlotType.UPLINK, None, RandomSource(0)),
            lambda n: run_contention(n, RandomSource(0)),
            lambda n: sample_contention(n, RandomSource(0)),
            lambda n: SessionConfig(n=n, seed=0),
            lambda n: fairness_experiment(n, 10, 0),
            prepare_leader_aware,
            circuits.leader_aware_circuit,
        ],
        ids=[
            "run_slot",
            "run_contention",
            "sample_contention",
            "session",
            "fairness",
            "prepare_leader_aware",
            "leader_aware_circuit",
        ],
    )
    def test_rejects_n_over_the_limit(self, call):
        with pytest.raises(ValueError, match=f"over the limit of {MAX_END_NODES}"):
            call(MAX_END_NODES + 1)

    def test_export_circuit_exits_1_before_writing(self, capsys, tmp_path):
        target = tmp_path / "circuit.txt"
        for out in ([], ["--out", str(target)]):
            assert entaccess.cli.main(["export-circuit", "--n", str(MAX_END_NODES + 1), *out]) == 1
            stdout, err = capsys.readouterr()
            assert stdout == ""
            assert f"over the limit of {MAX_END_NODES}" in err
        assert not target.exists()

    def test_a_slot_fails_before_drawing(self):
        rng = Draws(itertools.repeat(0.5))
        with pytest.raises(ValueError, match="over the limit"):
            run_slot(MAX_END_NODES + 1, SlotType.DOWNLINK, None, rng)
        assert rng.count == 0

    @pytest.mark.parametrize(
        "command",
        [
            ["elect"],
            ["uplink"],
            ["downlink"],
            ["session", "--trials", "4", "--jobs", "2"],
            ["fairness", "--trials", "4", "--jobs", "2"],
        ],
        ids=lambda c: c[0],
    )
    def test_cli_exits_1_without_a_pool(self, two_cpus, capsys, command):
        argv = [*command, "--n", str(MAX_END_NODES + 1), "--seed", "1"]
        assert entaccess.cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert f"over the limit of {MAX_END_NODES}" in err
        assert not _pool._pools
