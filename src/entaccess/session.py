"""Session driver and batch experiments over the slot protocols.

A session is a seeded sequence of trials; each trial regenerates fresh GHZ
and leader-aware resources for every slot of a configurable uplink/downlink
pattern and appends one structured trace record per slot. Trials can run
in parallel while the merged trace stays byte-identical to a serial run.
The worker processes are capped at the CPU count, forked on the first
parallel call and kept for the life of the process; being forked then,
they do not see module functions monkeypatched later.

Chi-squares are derived from the stored winner histograms when they are
read, and only then is scipy imported: output that reports none (slot
runs, traces, csv histograms, anonymity) never loads it.

Also here: the exhaustive branch enumerator, which walks every measurement
branch of a slot using only the simulator primitives. It is the oracle the
sampled protocol path is verified against (delivery fidelity on every
branch, and winner-identity posteriors for the anonymity checks).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import partial
from typing import Callable, TypeVar

from .circuits import LeaderAwareLayout, prepare_ghz, prepare_leader_aware
from .extraction import apply_up, build_p_sequence
from .protocol import (
    ORCHESTRATOR,
    ClassicalMessage,
    ContentionOutcome,
    EndNodeReport,
    OrchestratorBroadcast,
    ProtocolError,
    SlotReport,
    SlotType,
    contend,
    decode_ancilla,
    delivered_fidelity,
    local_view,
    message_bits,
    message_shape,
    run_slot,
    teleport_receive,
)
from .statevector import (
    Basis,
    HADAMARD,
    RandomSource,
    StateVector,
    apply_cnot,
    apply_single,
    enumerate_branches,
    tensor_product,
)

DEFAULT_SLOT_PATTERN = (SlotType.DOWNLINK, SlotType.UPLINK)

T = TypeVar("T")

# Generic probe payload for exhaustive checks: unequal magnitudes catch bit
# flips, the complex phase catches sign errors.
_PROBE_PAYLOAD = StateVector.qubit(0.6, 0.8j)


def _chisquare(counts: list[int]) -> tuple[float, float]:
    """(statistic, p-value) of ``counts`` against the uniform distribution."""
    from scipy import stats  # about a second to import; only readers of a chi-square pay it

    stat, p = stats.chisquare(counts)
    return float(stat), float(p)


@dataclass(frozen=True)
class SessionConfig:
    n: int
    seed: int
    slots: tuple[SlotType, ...] = DEFAULT_SLOT_PATTERN
    trials: int = 1

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one end-node")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        RandomSource.check_seed(self.seed)
        if not self.slots:
            raise ValueError("slot pattern must not be empty")
        for slot_type in self.slots:
            if not isinstance(slot_type, SlotType):
                raise ValueError(f"slot pattern entries must be SlotType, got {slot_type!r}")


@dataclass
class SessionStats:
    """Aggregates over one session's trace."""

    n: int
    trials: int
    slot_counts: dict[str, int]
    winner_hist: dict[str, dict[int, int]]
    fidelity_min: float
    fidelity_mean: float
    fidelity_max: float
    classical_bits: dict[str, int]
    traffic_uniform: bool

    @property
    def chi_square(self) -> dict[str, tuple[float, float] | None]:
        """Per slot type, (statistic, p-value) of the winner histogram; None for n < 2."""
        return {
            st: None if self.n < 2 else _chisquare(list(hist.values()))
            for st, hist in self.winner_hist.items()
        }

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "trials": self.trials,
            "slot_counts": self.slot_counts,
            "winner_hist": {
                st: {str(k): v for k, v in hist.items()}
                for st, hist in self.winner_hist.items()
            },
            "chi_square": {
                st: None if cs is None else {"stat": cs[0], "p_value": cs[1]}
                for st, cs in self.chi_square.items()
            },
            "fidelity": {
                "min": self.fidelity_min,
                "mean": self.fidelity_mean,
                "max": self.fidelity_max,
            },
            "classical_bits": self.classical_bits,
            "traffic_uniform": self.traffic_uniform,
        }


# Worker count and pool that _per_trial keeps for the life of each process,
# keyed by the pid that created it. A forked child finds its parent's pool
# under another pid and leaves it alone: using it would share the parent's
# queues, and dropping it would fire the parent pool's wake-up callback (a
# lock and a pipe copied from the parent) in the child.
_pools: dict[int, tuple[int, ProcessPoolExecutor]] = {}


def _per_trial(work: Callable[[int], T], seed: int, trials: int, jobs: int) -> list[T]:
    """``work(trial_seed)`` for every trial, returned in trial order.

    Trial ``t`` is seeded with ``seed`` XOR ``t``, so the results do not
    depend on ``jobs``. ``jobs`` > 1 spreads the trials over
    ``min(jobs, os.cpu_count())`` processes. The pool is forked on first use
    and kept for the process: later calls with the same worker count reuse
    it, another count replaces it, and a pool inherited from a parent
    process is never used. Its workers therefore run ``work`` as the module
    stood when they were forked, not under later monkeypatches. If a worker
    dies, the call raises ``BrokenProcessPool`` and the next call starts a
    fresh pool.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    trial_seeds = [seed ^ t for t in range(trials)]
    workers = min(jobs, os.cpu_count() or 1)
    if workers == 1 or trials == 1:
        return [work(s) for s in trial_seeds]
    # About eight tasks per worker, so per-task pickling stays small.
    chunksize = max(1, trials // (workers * 8))
    pid = os.getpid()
    cached = _pools.get(pid)
    if cached is None or cached[0] != workers:
        if cached is not None:
            cached[1].shutdown()
        cached = _pools[pid] = (workers, ProcessPoolExecutor(max_workers=workers))
    try:
        return list(cached[1].map(work, trial_seeds, chunksize=chunksize))
    except BrokenProcessPool:
        del _pools[pid]
        raise


def _run_trial(n: int, slots: tuple[SlotType, ...], trial_seed: int) -> list[SlotReport]:
    rng = RandomSource(trial_seed)
    return [run_slot(n, slot_type, None, rng) for slot_type in slots]


def run_session(config: SessionConfig, jobs: int = 1) -> tuple[SessionStats, list[dict]]:
    """Run the configured trials and return (stats, trace records).

    ``jobs`` > 1 distributes trials over processes; the trace is merged in
    trial order, so the output does not depend on the worker count.
    """
    per_trial = _per_trial(
        partial(_run_trial, config.n, config.slots), config.seed, config.trials, jobs
    )
    reports = [report for trial in per_trial for report in trial]
    return _aggregate(config, reports), [r.to_record(i) for i, r in enumerate(reports)]


def _aggregate(config: SessionConfig, reports: list[SlotReport]) -> SessionStats:
    slot_types = [st.value for st in dict.fromkeys(config.slots)]
    winner_hist = {st: {node: 0 for node in range(1, config.n + 1)} for st in slot_types}
    bits: dict[str, set[int]] = {st: set() for st in slot_types}
    shapes: dict[str, set[tuple]] = {st: set() for st in slot_types}
    fidelities = []
    for report in reports:
        st = report.outcome.slot_type.value
        winner_hist[st][report.outcome.winner] += 1
        bits[st].add(message_bits(report.messages))
        shapes[st].add(message_shape(report.messages))
        fidelities.append(report.teleport_fidelity)

    classical_bits = {}
    for st in slot_types:
        if len(bits[st]) > 1:
            raise ProtocolError(f"classical bit budget varied across {st} slots: {bits[st]}")
        classical_bits[st] = bits[st].pop()

    return SessionStats(
        n=config.n,
        trials=config.trials,
        slot_counts={st: sum(hist.values()) for st, hist in winner_hist.items()},
        winner_hist=winner_hist,
        fidelity_min=min(fidelities),
        fidelity_mean=sum(fidelities) / len(fidelities),
        fidelity_max=max(fidelities),
        classical_bits=classical_bits,
        traffic_uniform=all(len(s) <= 1 for s in shapes.values()),
    )


@dataclass(frozen=True)
class FairnessResult:
    n: int
    trials: int
    seed: int
    histogram: dict[int, int]

    @property
    def chi_square(self) -> float:
        return _chisquare(list(self.histogram.values()))[0]

    @property
    def p_value(self) -> float:
        return _chisquare(list(self.histogram.values()))[1]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "trials": self.trials,
            "seed": self.seed,
            "histogram": {str(k): v for k, v in self.histogram.items()},
            "chi_square": self.chi_square,
            "p_value": self.p_value,
        }


def _contention_winner(n: int, trial_seed: int) -> int:
    winner, _, _ = contend(prepare_leader_aware(n), RandomSource(trial_seed))
    return winner


def fairness_experiment(n: int, trials: int, seed: int, jobs: int = 1) -> FairnessResult:
    """Repeated contention; chi-square of the winner histogram against uniform.

    The histogram does not depend on ``jobs``.
    """
    if n < 2:
        raise ValueError("fairness needs at least two contending end-nodes")
    if trials < 1:
        raise ValueError("need at least one trial")
    RandomSource.check_seed(seed)
    histogram = {node: 0 for node in range(1, n + 1)}
    for winner in _per_trial(partial(_contention_winner, n), seed, trials, jobs):
        histogram[winner] += 1
    return FairnessResult(n, trials, seed, histogram)


@dataclass(frozen=True)
class SlotBranch:
    """One complete measurement branch of a slot, with its joint probability."""

    probability: float
    winner: int
    w_outcomes: tuple[int, ...]
    ancilla: tuple[int, ...]
    loser_outcomes: dict[int, int]
    parity: int
    q_star: int
    g_star: int
    delivered_fidelity: float

    def loser_view(self, loser: int, dummy: int, slot_type: SlotType) -> tuple:
        """``local_view`` of ``loser`` on this branch when its report carries ``dummy``."""
        report = EndNodeReport(g=self.loser_outcomes[loser], q=dummy)
        messages = [ClassicalMessage(loser, ORCHESTRATOR, report)]
        if slot_type is SlotType.DOWNLINK:
            broadcast = OrchestratorBroadcast(self.q_star, self.g_star, self.parity)
            messages.append(ClassicalMessage(ORCHESTRATOR, None, broadcast))
        return local_view(loser, self.w_outcomes[loser - 1], messages)


def enumerate_slot_branches(
    n: int, slot_type: SlotType, payload: StateVector | None = None
) -> list[SlotBranch]:
    """Walk every measurement branch of one slot; probabilities sum to 1.

    Built from the simulator primitives only (branch enumeration, the
    per-node extraction unitaries, and the receiver correction rule), so it
    serves as an independent oracle for the sampled slot runs.
    """
    if payload is None:
        payload = _PROBE_PAYLOAD
    layout = LeaderAwareLayout(n)
    comp = Basis.COMPUTATIONAL
    branches: list[SlotBranch] = []
    lam = prepare_leader_aware(n)
    for w_out, w_prob, lam_post in enumerate_branches(
        lam, layout.w_qubits, [comp] * n
    ):
        winners = [i + 1 for i, w in enumerate(w_out) if w == 1]
        if len(winners) != 1:
            raise ProtocolError(f"non one-hot contention branch: {w_out}")
        winner = winners[0]
        pair = ContentionOutcome.for_slot(slot_type, winner)
        for anc, anc_prob, _ in enumerate_branches(
            lam_post, layout.ancilla_qubits, [comp] * layout.m
        ):
            if decode_ancilla(anc, n) != winner:
                raise ProtocolError(f"ancilla branch {anc} does not name winner {winner}")
            pseq = build_p_sequence(winner, n)
            worked = apply_up(prepare_ghz(n + 1), pseq)
            losers = pseq.losers
            for g_out, g_prob, ghz_post in enumerate_branches(
                worked, losers, [comp] * len(losers)
            ):
                g_map = dict(zip(losers, g_out))
                parity = 0
                for g in g_out:
                    parity ^= g
                joint = tensor_product(ghz_post, payload)
                joint = apply_cnot(joint, n + 1, pair.transmitter)
                joint = apply_single(joint, n + 1, HADAMARD)
                for (q_star, g_star), t_prob, post in enumerate_branches(
                    joint, [n + 1, pair.transmitter], [comp, comp]
                ):
                    final = teleport_receive(post, pair.receiver, q_star, g_star, parity)
                    delivered = delivered_fidelity(final, pair, payload, g_map, q_star, g_star)
                    branches.append(
                        SlotBranch(
                            probability=w_prob * anc_prob * g_prob * t_prob,
                            winner=winner,
                            w_outcomes=w_out,
                            ancilla=anc,
                            loser_outcomes=g_map,
                            parity=parity,
                            q_star=q_star,
                            g_star=g_star,
                            delivered_fidelity=delivered,
                        )
                    )
    return branches


@dataclass(frozen=True)
class SlotAnonymity:
    slot_type: SlotType
    max_deviation: float
    view_count: int
    vacuous: bool


@dataclass(frozen=True)
class AnonymityReport:
    n: int
    per_slot: dict[SlotType, SlotAnonymity]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "results": {
                st.value: {
                    "max_deviation": sa.max_deviation,
                    "views": sa.view_count,
                    "vacuous": sa.vacuous,
                }
                for st, sa in self.per_slot.items()
            },
        }


def anonymity_experiment(n: int) -> AnonymityReport:
    """Exhaustively check that no loser's local view leaks the winner identity.

    For every loser and every view ``protocol.local_view`` gives it (its W
    bit, its report of its extraction bit and either dummy, and the downlink
    broadcast), the posterior over the winner must be uniform across the
    other end-nodes. Reports the largest deviation found.
    """
    if n < 1:
        raise ValueError("need at least one end-node")
    if n > 4:
        raise ValueError("exhaustive anonymity enumeration is limited to n <= 4")
    per_slot: dict[SlotType, SlotAnonymity] = {}
    for slot_type in (SlotType.UPLINK, SlotType.DOWNLINK):
        joint: dict[tuple, dict[int, float]] = {}
        for branch in enumerate_slot_branches(n, slot_type):
            for loser in branch.loser_outcomes:
                for dummy in (0, 1):
                    dist = joint.setdefault(branch.loser_view(loser, dummy, slot_type), {})
                    dist[branch.winner] = dist.get(branch.winner, 0.0) + 0.5 * branch.probability
        max_dev = 0.0
        for view, dist in joint.items():
            total = sum(dist.values())
            candidates = [k for k in range(1, n + 1) if k != view[0]]
            for k in candidates:
                posterior = dist.get(k, 0.0) / total
                max_dev = max(max_dev, abs(posterior - 1.0 / len(candidates)))
        per_slot[slot_type] = SlotAnonymity(
            slot_type=slot_type,
            max_deviation=max_dev,
            view_count=len(joint),
            vacuous=n <= 2,
        )
    return AnonymityReport(n=n, per_slot=per_slot)


def collect_traffic_shapes(
    n: int, slot_type: SlotType, max_seeds: int = 512
) -> dict[int, set[tuple]]:
    """Observed message shapes keyed by winner, scanning seeds until all n winners appear."""
    shapes: dict[int, set[tuple]] = {}
    for seed in range(max_seeds):
        report = run_slot(n, slot_type, None, RandomSource(seed))
        shapes.setdefault(report.outcome.winner, set()).add(message_shape(report.messages))
        if len(shapes) == n:
            break
    if len(shapes) < n:
        raise ProtocolError(
            f"not every winner appeared within {max_seeds} seeds (got {sorted(shapes)})"
        )
    return shapes
