"""Session driver, fairness and anonymity experiments, branch enumerator."""

import dataclasses
import math
import multiprocessing
import os
import pickle
import re
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from dense_states import basis_state
from test_statevector import measure_sequence
import entaccess.circuits
import entaccess.protocol
import entaccess.session
from entaccess import _pool
from entaccess.circuits import MAX_END_NODES, prepare_leader_aware
from entaccess.protocol import ProtocolError, SlotType
from entaccess.session import (
    DEFAULT_SLOT_PATTERN,
    MAX_SESSION_NODE_SLOTS,
    SessionConfig,
    _aggregate,
    _chi2_sf,
    _chisquare,
    anonymity_experiment,
    collect_traffic_shapes,
    enumerate_slot_branches,
    fairness_experiment,
    run_session,
)
from entaccess.statevector import RandomSource, StateVector, haar_qubit


def assert_matches_scipy(chi_square, counts, p_tol=1e-12):
    """``(stat, p)`` equals ``scipy.stats.chisquare(counts)`` to 1e-15 and ``p_tol`` relative.

    The package computes the chi-square in plain arithmetic; scipy is the
    reference it is checked against, and the two round differently.
    """
    stat, p = scipy_stats.chisquare(counts)
    assert math.isclose(chi_square[0], stat, rel_tol=1e-15)
    assert math.isclose(chi_square[1], p, rel_tol=p_tol)


class TestSessionConfig:
    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError, match="trial"):
            SessionConfig(n=2, seed=0, trials=0)

    def test_rejects_zero_nodes(self):
        with pytest.raises(ValueError, match="end-node"):
            SessionConfig(n=0, seed=0)

    def test_rejects_empty_pattern(self):
        with pytest.raises(ValueError, match="pattern"):
            SessionConfig(n=2, seed=0, slots=())

    @pytest.mark.parametrize(
        "slots", [lambda: iter(()), lambda: (s for s in [])], ids=["iterator", "generator"]
    )
    def test_rejects_an_empty_iterable(self, slots):
        # an iterator is truthy whether or not it is empty: check the tuple
        with pytest.raises(ValueError, match="slot pattern must not be empty"):
            SessionConfig(4, 1, slots=slots())

    def test_rejects_slot_type_strings(self):
        with pytest.raises(ValueError, match="'uplink'"):
            SessionConfig(n=3, seed=0, slots=("uplink",))

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            SessionConfig(n=3, seed=-1)

    @pytest.mark.parametrize("seed", [1.5, "3", (1, 2)])
    def test_rejects_non_integer_seed(self, seed):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            SessionConfig(n=3, seed=seed)

    def test_numpy_seed_stored_as_int(self):
        config = SessionConfig(n=3, seed=np.int64(1))
        assert type(config.seed) is int
        assert config == SessionConfig(n=3, seed=1)

    def test_slot_list_stored_as_tuple(self):
        config = SessionConfig(n=3, seed=1, slots=[SlotType.UPLINK])
        assert config.slots == (SlotType.UPLINK,)
        assert hash(config) == hash(SessionConfig(n=3, seed=1, slots=(SlotType.UPLINK,)))


class TestRunSession:
    def test_single_node_single_slot(self):
        config = SessionConfig(n=1, seed=0, slots=(SlotType.UPLINK,), trials=1)
        stats, records = run_session(config)
        assert len(records) == 1
        assert records[0]["winner"] == 1
        assert records[0]["fidelity"] >= 1.0 - 1e-10
        assert stats.winner_hist["uplink"][1] == 1
        assert stats.chi_square["uplink"] is None

    def test_histogram_totals_match_slot_counts(self):
        config = SessionConfig(n=3, seed=5, trials=40)
        stats, records = run_session(config)
        assert len(records) == 80
        for st in ("downlink", "uplink"):
            assert stats.slot_counts[st] == 40
            assert sum(stats.winner_hist[st].values()) == 40

    def test_deterministic_traces(self):
        config = SessionConfig(n=4, seed=9, trials=10)
        stats_a, records_a = run_session(config)
        stats_b, records_b = run_session(config)
        assert records_a == records_b
        assert stats_a == stats_b

    def test_trace_independent_of_job_count(self):
        config = SessionConfig(n=3, seed=2, trials=8)
        assert run_session(config, jobs=1) == run_session(config, jobs=4)

    def test_classical_bit_budget(self):
        config = SessionConfig(n=4, seed=1, trials=5)
        stats, _ = run_session(config)
        assert stats.classical_bits == {"downlink": 11, "uplink": 8}
        assert stats.traffic_uniform

    @staticmethod
    def _tamper_first(monkeypatch, slot_type, change):
        """Make ``run_slot`` apply ``change`` to the first report of ``slot_type``."""
        real_run_slot = entaccess.session.run_slot
        pending = [True]

        def tampering_run_slot(*args):
            report = real_run_slot(*args)
            if report.outcome.slot_type is slot_type and pending:
                pending.pop()
                return change(report)
            return report

        monkeypatch.setattr(entaccess.session, "run_slot", tampering_run_slot)

    def test_varying_bit_budget_raises(self, monkeypatch):
        self._tamper_first(
            monkeypatch,
            SlotType.DOWNLINK,
            lambda r: dataclasses.replace(r, messages=r.messages[:-1]),
        )
        with pytest.raises(ProtocolError, match="downlink"):
            run_session(SessionConfig(n=4, seed=1, trials=3), jobs=1)

    def test_reordered_traffic_is_not_uniform(self, monkeypatch):
        self._tamper_first(
            monkeypatch,
            SlotType.UPLINK,
            lambda r: dataclasses.replace(r, messages=r.messages[::-1]),
        )
        stats, _ = run_session(SessionConfig(n=4, seed=1, trials=3), jobs=1)
        assert stats.traffic_uniform is False
        assert stats.classical_bits == {"downlink": 11, "uplink": 8}

    def test_fidelity_aggregates(self):
        config = SessionConfig(n=2, seed=3, trials=20)
        stats, _ = run_session(config)
        assert stats.fidelity_min >= 1.0 - 1e-10
        assert stats.fidelity_max <= 1.0 + 1e-10

    def test_over_memory_budget_raises_before_any_trial(self, monkeypatch):
        def per_trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(entaccess.session, "per_trial", per_trial)
        config = SessionConfig(n=MAX_END_NODES, seed=0, trials=2)
        with pytest.raises(ValueError, match=f"over the limit of {MAX_SESSION_NODE_SLOTS}:"):
            run_session(config, jobs=2)

    def test_memory_budget_counts_trials_slots_and_end_nodes(self, monkeypatch):
        monkeypatch.setattr(entaccess.session, "MAX_SESSION_NODE_SLOTS", 10)
        uplink = (SlotType.UPLINK,)
        _, records = run_session(SessionConfig(n=1, seed=0, slots=uplink, trials=2))  # 2 x 1 x 5
        assert len(records) == 2
        with pytest.raises(ValueError, match=r"^session of 15 end-node slots \(trials x slots"):
            run_session(SessionConfig(n=1, seed=0, slots=uplink, trials=3))
        with pytest.raises(ValueError, match=r"^session of 12 end-node slots"):
            run_session(SessionConfig(n=2, seed=0, slots=uplink * 2, trials=1))

    def test_fidelity_mean_correctly_rounded(self):
        # Python 3.11's sum gives 1.0 here and 3.12's compensated sum does not.
        fidelities = [1.0, 1.0000000000000002, 1.0000000000000002]
        rows = [
            ({"slot_type": "uplink", "winner": 1, "fidelity": f}, (("a", "b", 1),))
            for f in fidelities
        ]
        config = SessionConfig(n=2, seed=0, slots=(SlotType.UPLINK,), trials=3)
        assert _aggregate(config, rows).fidelity_mean == 1.0000000000000002

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_chi_square_read_from_histogram(self, n, jobs):
        stats, _ = run_session(SessionConfig(n=n, seed=n, trials=30), jobs=jobs)
        for st, hist in stats.winner_hist.items():
            assert_matches_scipy(stats.chi_square[st], list(hist.values()))

    def test_winner_histograms_near_uniform(self):
        config = SessionConfig(n=4, seed=17, trials=500)
        stats, _ = run_session(config)
        for st in ("downlink", "uplink"):
            stat, p = stats.chi_square[st]
            assert p > 0.001

    def test_slot_records_numbered_in_trial_order(self):
        config = SessionConfig(n=2, seed=0, trials=3)
        _, records = run_session(config)
        assert [r["slot"] for r in records] == list(range(6))
        assert [r["slot_type"] for r in records[:2]] == ["downlink", "uplink"]

    def test_resources_regenerated_every_slot(self, monkeypatch):
        # the leader-aware resource is sampled in closed form, once per slot
        calls = {"ghz": 0, "leader_aware": 0}
        real_ghz = entaccess.protocol.prepare_ghz
        real_contention = entaccess.protocol.sample_contention

        def counting_ghz(q):
            calls["ghz"] += 1
            return real_ghz(q)

        def counting_contention(n, rng):
            calls["leader_aware"] += 1
            return real_contention(n, rng)

        monkeypatch.setattr(entaccess.protocol, "prepare_ghz", counting_ghz)
        monkeypatch.setattr(entaccess.protocol, "sample_contention", counting_contention)
        config = SessionConfig(n=2, seed=4, trials=3)
        run_session(config)
        assert calls == {"ghz": 6, "leader_aware": 6}

    def test_stats_to_dict_is_json_ready(self):
        import json

        config = SessionConfig(n=2, seed=7, trials=4)
        stats, _ = run_session(config)
        json.dumps(stats.to_dict())  # must not raise


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize(
    "experiment",
    [
        lambda jobs: run_session(SessionConfig(n=3, seed=-1, trials=8), jobs=jobs),
        lambda jobs: fairness_experiment(3, 8, -1, jobs=jobs),
    ],
    ids=["run_session", "fairness_experiment"],
)
def test_rejects_negative_seed_before_starting_a_pool(two_cpus, experiment, jobs):
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        experiment(jobs)
    assert not _pool._procs and not _pool._conns


@pytest.mark.parametrize(
    "experiment",
    [
        lambda: run_session(SessionConfig(n=3, seed=0, trials=2), jobs=0),
        lambda: fairness_experiment(3, 10, 0, jobs=0),
    ],
    ids=["run_session", "fairness_experiment"],
)
def test_rejects_zero_jobs(experiment):
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        experiment()


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize(
    "experiment, name",
    [
        (lambda jobs: run_session(SessionConfig(n=2.5, seed=1), jobs=jobs), "n"),
        (lambda jobs: run_session(SessionConfig(n=3, seed=1, trials=2.5), jobs=jobs), "trials"),
        (lambda jobs: run_session(SessionConfig(n=3, seed=1, trials=4), jobs=jobs + 0.5), "jobs"),
        (lambda jobs: fairness_experiment(3.0, 10, 1, jobs=jobs), "n"),
        (lambda jobs: fairness_experiment(3, 10.0, 1, jobs=jobs), "trials"),
        (lambda jobs: fairness_experiment(3, 10, 1, jobs=jobs + 0.5), "jobs"),
    ],
    ids=["session_n", "session_trials", "session_jobs", "fairness_n", "fairness_trials",
         "fairness_jobs"],
)
def test_rejects_non_integer_sizes_before_starting_a_pool(two_cpus, experiment, name, jobs):
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        experiment(jobs)
    assert not _pool._procs and not _pool._conns


def test_anonymity_rejects_non_integer_n():
    with pytest.raises(ValueError, match="n must be an integer, got 2.0"):
        anonymity_experiment(2.0)


def test_numpy_integer_sizes_accepted():
    three, eight = np.int64(3), np.int64(8)
    stats, _ = run_session(SessionConfig(n=three, seed=1, trials=eight), jobs=np.int64(1))
    assert stats == run_session(SessionConfig(n=3, seed=1, trials=8))[0]
    assert fairness_experiment(three, eight, 1, np.int64(1)) == fairness_experiment(3, 8, 1)
    assert anonymity_experiment(np.int64(2)) == anonymity_experiment(2)


def test_fairness_numpy_seed_is_json_ready():
    import json

    result = fairness_experiment(3, 8, np.int64(1))
    assert type(result.seed) is int
    assert json.dumps(result.to_dict()) == json.dumps(fairness_experiment(3, 8, 1).to_dict())


def _worker_pid(trials: range) -> list[int]:
    """The pid of the process running each trial of the block."""
    return [os.getpid()] * len(trials)


def _block(trials: range) -> list[range]:
    """The block each trial of the block ran in."""
    return [trials] * len(trials)


def _raise_in_worker(trials: range) -> list:
    """Fails every block but the caller's, which starts at trial 0."""
    if trials.start:
        raise ProtocolError(f"block from trial {trials.start} failed")
    return list(trials)


def _raise_in_caller(exc_type: type, trials: range) -> list:
    """Fails the caller's block, the one that starts at trial 0."""
    if not trials.start:
        raise exc_type("the caller's block failed")
    return list(trials)


def _exited_orphan(pid: int) -> bool:
    """Whether ``pid`` is a zombie of another parent: a process that outlived
    its parent was reparented, and only its new parent can reap it."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state, ppid = fh.read().rsplit(")", 1)[1].split()[:2]
    except FileNotFoundError:  # no procfs, or the process has just been reaped
        return False
    return state == "Z" and int(ppid) != os.getpid()


def _wait_reaped(pid: int, timeout: float = 10.0) -> None:
    """Wait until ``pid`` has exited and, if it is a child of this process, been reaped."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return
        if _exited_orphan(pid):
            return
        time.sleep(0.01)
    raise AssertionError(f"process {pid} still exists after {timeout} s")


# A process that builds a two-process pool, prints its worker's pid and then
# exits, or waits to be killed; with "fork", it first forks a child that
# sleeps on and prints that child's pid.
_POOL_OWNER = """
import os, sys, time
from entaccess import _pool

def pid(trials):
    return [os.getpid()] * len(trials)

os.cpu_count = lambda: 2
pids = set(_pool.per_trial(pid, 4, 2)) - {os.getpid()}
print(*pids, flush=True)
if sys.argv[1] == "fork":
    child = os.fork()
    if not child:
        time.sleep(60)
        os._exit(0)
    print(child, flush=True)
if sys.argv[1] != "exit":
    time.sleep(60)
"""

# A process whose forked child finds no workers, builds its own and leaves
# through the interpreter's exit, after which the parent's pool still serves it.
_FORKING_OWNER = """
import os, sys
from entaccess import _pool

def pid(trials):
    return [os.getpid()] * len(trials)

os.cpu_count = lambda: 2
workers = set(_pool.per_trial(pid, 4, 2)) - {os.getpid()}
child = os.fork()
if not child:
    assert not _pool._procs and not _pool._conns
    own = set(_pool.per_trial(pid, 4, 2)) - {os.getpid()}
    assert len(own) == 1 and not own & workers
    sys.exit()
assert os.waitstatus_to_exitcode(os.waitpid(child, 0)[1]) == 0
assert set(_pool.per_trial(pid, 4, 2)) - {os.getpid()} == workers
"""

# A fresh process whose workers report whether they were forked with numpy's
# generators already loaded, as the caller's own block needs them.
_NUMPY_AT_FORK = """
import os, sys
from entaccess import _pool

def loaded(trials):
    return ["numpy.random" in sys.modules] * len(trials)

os.cpu_count = lambda: 2
assert "numpy" not in sys.modules
print(*_pool.per_trial(loaded, 2, 2))
"""


def _src_env() -> dict[str, str]:
    """This environment, with the package's source directory first on ``PYTHONPATH``."""
    env = dict(os.environ)
    src = str(Path(entaccess.session.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


class TestWorkerPool:
    @pytest.mark.parametrize("trials, block", [(16, 8), (7, 4)])
    def test_one_contiguous_block_per_worker(self, two_cpus, trials, block):
        pids = _pool.per_trial(_worker_pid, trials, 2)
        caller, worker = pids[0], pids[-1]
        assert caller == os.getpid()
        assert worker != caller
        assert pids == [caller] * block + [worker] * (trials - block)

    @pytest.mark.parametrize("jobs, blocks", [(1, [range(7)]), (2, [range(4), range(4, 7)])])
    def test_work_runs_ranges_of_trial_numbers(self, two_cpus, jobs, blocks):
        got = _pool.per_trial(_block, 7, jobs)
        assert list(dict.fromkeys(got)) == blocks
        assert all(type(block) is range for block in got)

    def test_successive_calls_reuse_the_workers(self, two_cpus, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        first = _pool.per_trial(_worker_pid, 24, 3)
        second = _pool.per_trial(_worker_pid, 24, 3)
        assert first[:8] == [os.getpid()] * 8
        workers = set(first[8:])
        assert len(workers) == 2 and os.getpid() not in workers
        assert workers <= {child.pid for child in multiprocessing.active_children()}
        assert second == first

    def test_new_worker_count_replaces_the_pool(self, two_cpus, monkeypatch):
        old = set(_pool.per_trial(_worker_pid, 16, 2)) - {os.getpid()}
        # Held here, so that garbage collection cannot be what stops its workers.
        old_procs = list(_pool._procs)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        new = set(_pool.per_trial(_worker_pid, 24, 3)) - {os.getpid()}
        assert not set(_pool._procs) & set(old_procs)
        assert len(old) == 1 and len(new) == 2
        assert not old & new
        for pid in old:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_dead_worker_fails_one_call_then_pool_restarts(self, two_cpus):
        victim = _pool.per_trial(_worker_pid, 16, 2)[-1]
        os.kill(victim, signal.SIGKILL)
        with pytest.raises(BrokenProcessPool):
            _pool.per_trial(_worker_pid, 16, 2)
        assert not _pool._procs and not _pool._conns
        _wait_reaped(victim)
        assert fairness_experiment(4, 64, 2, jobs=2) == fairness_experiment(4, 64, 2, jobs=1)

    def test_workers_capped_at_cpu_count(self, two_cpus):
        pids = set(_pool.per_trial(_worker_pid, 32, 64))
        assert len(pids) == 2 and os.getpid() in pids
        assert len(_pool._procs) == len(_pool._conns) == 1  # the caller is the other one

    def test_unknown_cpu_count_runs_serially(self, two_cpus, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert set(_pool.per_trial(_worker_pid, 4, 64)) == {os.getpid()}
        assert not _pool._procs and not _pool._conns

    def test_worker_exception_reaches_the_caller(self, two_cpus):
        with pytest.raises(ProtocolError, match="^block from trial 8 failed$"):
            _pool.per_trial(_raise_in_worker, 16, 2)
        assert not _pool._procs and not _pool._conns
        assert fairness_experiment(4, 64, 2, jobs=2) == fairness_experiment(4, 64, 2, jobs=1)

    @pytest.mark.parametrize("exc_type", [ValueError, KeyboardInterrupt])
    def test_caller_exception_discards_the_pool(self, two_cpus, exc_type):
        _pool.per_trial(_worker_pid, 16, 2)
        old_procs = list(_pool._procs)
        with pytest.raises(exc_type, match="the caller's block failed"):
            _pool.per_trial(partial(_raise_in_caller, exc_type), 16, 2)
        assert not _pool._procs and not _pool._conns
        for proc in old_procs:
            _wait_reaped(proc.pid)
        # A kept pool would hand this call the failed call's reply.
        work = partial(entaccess.session._run_trials, 3, DEFAULT_SLOT_PATTERN, 5)
        assert _pool.per_trial(work, 16, 2) == work(range(16))

    @pytest.mark.parametrize("end", ["exit", "wait", "fork"])
    def test_no_worker_outlives_its_caller(self, end):
        with subprocess.Popen(
            [sys.executable, "-c", _POOL_OWNER, end],
            stdout=subprocess.PIPE, text=True, env=_src_env(),
        ) as owner:
            (worker,) = map(int, owner.stdout.readline().split())
            other = int(owner.stdout.readline()) if end == "fork" else None
            if end != "exit":
                owner.kill()
            assert owner.wait(timeout=30) == (0 if end == "exit" else -signal.SIGKILL)
        try:
            _wait_reaped(worker)
            if other is not None:
                os.kill(other, 0)  # the forked child still lives
        finally:
            if other is not None:
                os.kill(other, signal.SIGKILL)
                _wait_reaped(other)

    def test_forked_child_builds_its_own_pool(self):
        done = subprocess.run(
            [sys.executable, "-c", _FORKING_OWNER],
            capture_output=True, text=True, env=_src_env(), timeout=60,
        )
        assert done.returncode == 0, done.stderr

    def test_workers_share_the_callers_numpy(self):
        done = subprocess.run(
            [sys.executable, "-c", _NUMPY_AT_FORK],
            capture_output=True, text=True, env=_src_env(), timeout=60,
        )
        assert done.returncode == 0, done.stderr
        # the caller's block runs after the fork, so it too finds numpy loaded
        assert done.stdout.split() == ["True", "True"]


_BUILTINS = {dict, list, tuple, str, int, float, type(None)}


def _types_in(obj):
    """The exact type of ``obj`` and of everything inside it, through dicts, lists and tuples."""
    yield type(obj)
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _types_in(key)
            yield from _types_in(value)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _types_in(item)


class TestPoolResults:
    @pytest.mark.parametrize(
        "slots",
        [DEFAULT_SLOT_PATTERN, (SlotType.UPLINK,), (SlotType.DOWNLINK, SlotType.DOWNLINK)],
        ids=["du", "u", "dd"],
    )
    def test_trial_rows_hold_builtins_only(self, slots):
        rows = entaccess.session._run_trials(4, slots, 3, range(5, 7))
        assert set(_types_in(rows)) <= _BUILTINS
        assert b"entaccess" not in pickle.dumps(rows)
        first = 5 * len(slots)  # trial 5's first slot in the session
        indices = [record["slot"] for record, _ in rows]
        assert indices == list(range(first, first + 2 * len(slots)))

    def test_fairness_trials_are_ints(self):
        winners = entaccess.session._contention_winners(5, 3, range(5, 7))
        assert [type(w) for w in winners] == [int, int]

    @pytest.mark.parametrize("trials", [1, 2, 3, 7])
    def test_pool_matches_serial(self, two_cpus, trials):
        config = SessionConfig(n=3, seed=11, trials=trials)
        serial = run_session(config, jobs=1)
        assert run_session(config, jobs=2) == serial
        assert [record["slot"] for record in serial[1]] == list(range(2 * trials))
        assert fairness_experiment(3, trials, 11, jobs=2) == fairness_experiment(3, trials, 11)


class TestTrialContext:
    """A slot's ``ProtocolError`` names the seed, the trial and the session-wide slot."""

    def test_serial_slot_error(self, monkeypatch):
        calls = []

        def run_slot(*args):
            calls.append(args)
            if len(calls) == 4:  # trial 1's second slot
                raise ProtocolError("ancilla readout named node 9")
            return entaccess.protocol.run_slot(*args)

        monkeypatch.setattr(entaccess.session, "run_slot", run_slot)
        with pytest.raises(
            ProtocolError, match=r"^seed 5, trial 1, slot 3: ancilla readout named node 9$"
        ) as caught:
            run_session(SessionConfig(n=3, seed=5, trials=4))
        assert isinstance(caught.value.__cause__, ProtocolError)

    def test_worker_slot_error_reaches_the_caller(self, two_cpus, monkeypatch):
        caller = os.getpid()

        def run_slot(*args):
            if os.getpid() != caller:
                raise ProtocolError("contention produced 2 winners")
            return entaccess.protocol.run_slot(*args)

        # Patched before the first parallel call, so the forked worker runs it too.
        monkeypatch.setattr(entaccess.session, "run_slot", run_slot)
        with pytest.raises(
            ProtocolError, match=r"^seed 5, trial 8, slot 16: contention produced 2 winners$"
        ):
            run_session(SessionConfig(n=3, seed=5, trials=16), jobs=2)
        assert not _pool._procs and not _pool._conns


class TestFairness:
    def test_two_nodes_within_three_sigma(self):
        result = fairness_experiment(2, 10_000, seed=0)
        sigma = (10_000 * 0.25) ** 0.5
        assert abs(result.histogram[1] - 5_000) < 3 * sigma

    def test_four_nodes_chi_square_below_099_quantile(self):
        result = fairness_experiment(4, 10_000, seed=1)
        assert result.chi_square < scipy_stats.chi2.ppf(0.99, df=3)
        assert result.p_value > 0.01

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            fairness_experiment(4, 0, seed=0)

    def test_single_node_rejected(self):
        with pytest.raises(ValueError, match="^fairness needs at least two contending end-nodes$"):
            fairness_experiment(1, 100, seed=0)

    @pytest.mark.parametrize(
        "n, trials, seed",
        [(0, 10, 0), (2.5, 10, 0), (4, 0, 0), (4, "10", 0), (4, 10, -1), (4, 10, 1.0)],
        ids=["n", "n-type", "trials", "trials-type", "seed", "seed-type"],
    )
    def test_input_checks_are_the_session_checks(self, n, trials, seed):
        with pytest.raises(ValueError) as expected:
            SessionConfig(n=n, seed=seed, trials=trials)
        with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
            fairness_experiment(n, trials, seed)

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_chi_square_read_from_histogram(self, n):
        result = fairness_experiment(n, 300, seed=n)
        assert_matches_scipy(
            (result.chi_square, result.p_value), list(result.histogram.values())
        )

    def test_to_dict_computes_one_chi_square(self, monkeypatch):
        calls = []
        real = entaccess.session._chisquare
        monkeypatch.setattr(
            entaccess.session, "_chisquare", lambda counts: calls.append(counts) or real(counts)
        )
        result = fairness_experiment(3, 60, seed=1)
        out = result.to_dict()
        assert len(calls) == 1
        assert (out["chi_square"], out["p_value"]) == (result.chi_square, result.p_value)

    def test_histogram_sums_to_trials(self):
        result = fairness_experiment(3, 500, seed=2)
        assert sum(result.histogram.values()) == 500

    def test_builds_no_resource_and_matches_contend(self, monkeypatch):
        built = []
        for module in (entaccess.circuits, entaccess.protocol, entaccess.session):
            monkeypatch.setattr(module, "prepare_leader_aware", built.append, raising=False)
        result = fairness_experiment(5, 40, seed=3)
        monkeypatch.undo()
        assert built == []
        # the reference walk: each trial's W block measured on the built state
        expected = {node: 0 for node in range(1, 6)}
        for t in range(40):
            w, _ = measure_sequence(prepare_leader_aware(5), range(5), RandomSource((3, t)))
            expected[w.index(1) + 1] += 1
        assert result.histogram == expected

    def test_histogram_independent_of_job_count(self):
        serial = fairness_experiment(3, 200, seed=6)
        parallel = fairness_experiment(3, 200, seed=6, jobs=4)
        assert serial == parallel

    def test_distinct_seeds_give_distinct_histograms(self):
        # seeding trial t with seed ^ t ran seeds 0 and 1 on the same trials
        histograms = [fairness_experiment(4, 1000, seed).histogram for seed in (0, 1)]
        assert histograms[0] != histograms[1]


class TestChiSquare:
    """The closed-form chi-square of ``_chisquare`` against scipy's."""

    @pytest.mark.parametrize("total", ["n", "10n+3", 1000, 100_000])
    def test_matches_scipy_for_every_n_up_to_1024(self, total):
        rng = np.random.default_rng(7)
        for n in range(2, 1025):
            trials = {"n": n, "10n+3": 10 * n + 3}.get(total, total)
            counts = rng.multinomial(trials, [1 / n] * n).tolist()
            assert_matches_scipy(_chisquare(counts), counts)

    def test_matches_scipy_at_n_100000(self):
        n = 100_000
        counts = np.random.default_rng(3).multinomial(5 * n, [1 / n] * n).tolist()
        # Each series term is a difference of logs near 1e6, so lgamma's
        # rounding costs more digits here than at n <= 1024.
        assert_matches_scipy(_chisquare(counts), counts, p_tol=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 8, 1024])
    def test_all_equal_histogram_has_p_one(self, n):
        assert _chisquare([5] * n) == (0.0, 1.0)

    @given(st.floats(min_value=0, max_value=1e6))
    @settings(max_examples=200, deadline=None)
    def test_dof_one_and_two_are_erfc_and_exp(self, x):
        assert _chi2_sf(x, 1) == math.erfc(math.sqrt(x / 2))
        assert _chi2_sf(x, 2) == math.exp(-x / 2)

    @given(
        st.integers(min_value=1, max_value=2047),
        st.floats(min_value=0, max_value=1e4),
        st.floats(min_value=0, max_value=1e4),
    )
    @settings(max_examples=200, deadline=None)
    def test_p_value_is_a_probability_non_increasing_in_x(self, dof, x1, x2):
        lo, hi = sorted((x1, x2))
        p_lo, p_hi = _chi2_sf(lo, dof), _chi2_sf(hi, dof)
        assert 0.0 <= p_hi and p_lo <= 1.0
        # Adjacent floats can swap by the series' rounding, never by more.
        assert p_hi <= p_lo * (1 + 1e-12)


def test_every_trial_of_every_seed_has_its_own_stream():
    def first_draw(seed, trials):
        return [RandomSource((seed, t)).random() for t in trials]

    first_draws = [
        draw
        for seed in range(4)
        for draw in _pool.per_trial(partial(first_draw, seed), 64, 1)
    ]
    assert len(set(first_draws)) == len(first_draws)


class TestEnumerator:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("slot_type", [SlotType.UPLINK, SlotType.DOWNLINK])
    def test_probabilities_sum_to_one(self, n, slot_type):
        branches = enumerate_slot_branches(n, slot_type)
        assert sum(b.probability for b in branches) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("slot_type", [SlotType.UPLINK, SlotType.DOWNLINK])
    def test_every_branch_delivers(self, n, slot_type):
        for branch in enumerate_slot_branches(n, slot_type):
            assert branch.delivered_fidelity >= 1.0 - 1e-10

    def test_haar_payloads_also_deliver(self):
        payload = haar_qubit(RandomSource(31))
        for branch in enumerate_slot_branches(2, SlotType.UPLINK, payload):
            assert branch.delivered_fidelity >= 1.0 - 1e-10

    def test_covers_all_correction_combinations(self):
        combos = {
            (b.q_star, b.g_star, b.parity)
            for b in enumerate_slot_branches(3, SlotType.UPLINK)
        }
        assert len(combos) == 8

    def test_parity_matches_loser_outcomes(self):
        for branch in enumerate_slot_branches(4, SlotType.DOWNLINK):
            parity = 0
            for g in branch.loser_outcomes.values():
                parity ^= g
            assert parity == branch.parity

    def test_rejects_slot_type_strings(self):
        with pytest.raises(ValueError, match="'uplink'"):
            enumerate_slot_branches(2, "uplink")

    def test_rejects_n_over_the_limit_before_building_anything(self, monkeypatch):
        def refuse(n):
            raise AssertionError(f"prepare_leader_aware({n}) was called")

        monkeypatch.setattr(entaccess.session, "prepare_leader_aware", refuse)
        with pytest.raises(ValueError, match="n <= 8"):
            enumerate_slot_branches(9, SlotType.UPLINK)

    @pytest.mark.parametrize("w_bits,winners", [((0, 0), 0), ((1, 1), 2)])
    def test_rejects_a_branch_that_is_not_one_hot(self, monkeypatch, w_bits, winners):
        state = basis_state([*w_bits, 0])  # n = 2: W qubits 0, 1; ancilla 2
        monkeypatch.setattr(entaccess.session, "prepare_leader_aware", lambda n: state)
        with pytest.raises(ProtocolError, match=f"produced {winners} winners"):
            enumerate_slot_branches(2, SlotType.UPLINK)

    def test_rejects_ancillas_naming_another_node(self, monkeypatch):
        # a W state whose ancilla is never tagged: node 2's branch reads node 1's codeword
        untagged = StateVector(3, {0b100: 1 / math.sqrt(2), 0b010: 1 / math.sqrt(2)})
        monkeypatch.setattr(entaccess.session, "prepare_leader_aware", lambda n: untagged)
        with pytest.raises(ProtocolError, match="named node 1 but contention winner is 2"):
            enumerate_slot_branches(2, SlotType.DOWNLINK)


class TestAnonymity:
    def test_three_nodes_uniform_posterior(self):
        report = anonymity_experiment(3)
        for sa in report.per_slot.values():
            assert sa.max_deviation < 1e-10
            assert not sa.vacuous

    def test_four_nodes_uniform_posterior(self):
        report = anonymity_experiment(4)
        assert report.per_slot[SlotType.DOWNLINK].max_deviation < 1e-10
        assert report.per_slot[SlotType.UPLINK].max_deviation < 1e-10

    def test_two_nodes_flagged_vacuous(self):
        report = anonymity_experiment(2)
        for sa in report.per_slot.values():
            assert sa.vacuous
            assert sa.max_deviation < 1e-10  # uniform over the single candidate

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_uniform_posterior_up_to_the_cap(self, n):
        report = anonymity_experiment(n)
        for slot_type in SlotType:
            assert report.per_slot[slot_type].max_deviation < 1e-10

    def test_large_n_rejected(self):
        with pytest.raises(ValueError, match="n <= 8"):
            anonymity_experiment(9)

    def test_report_serializes(self):
        doc = anonymity_experiment(3).to_dict()
        assert set(doc["results"]) == {"uplink", "downlink"}


class TestTrafficShapes:
    @pytest.mark.parametrize("slot_type", [SlotType.UPLINK, SlotType.DOWNLINK])
    def test_identical_across_winners(self, slot_type):
        shapes = collect_traffic_shapes(3, slot_type)
        assert set(shapes) == {1, 2, 3}
        distinct = {shape for per_winner in shapes.values() for shape in per_winner}
        assert len(distinct) == 1

    def test_rejects_slot_type_strings(self):
        with pytest.raises(ValueError, match="'uplink'"):
            collect_traffic_shapes(3, "uplink")

    def test_n_above_the_seed_count_runs_no_slot(self, monkeypatch):
        # 512 seeds cannot show 513 winners, so no slot is worth running
        def no_slot(*args):
            raise AssertionError("run_slot called")

        monkeypatch.setattr(entaccess.session, "run_slot", no_slot)
        with pytest.raises(ValueError, match="512 seeds"):
            collect_traffic_shapes(513, SlotType.UPLINK)
