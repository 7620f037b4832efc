"""Session driver and batch experiments over the slot protocols.

A session is a seeded sequence of trials; each trial regenerates fresh GHZ
and leader-aware resources for every slot of a configurable uplink/downlink
pattern (the leader-aware one sampled in closed form, never built) and
appends one structured trace record per slot. Trials can run
in parallel, in ``_pool``'s forked workers, while the merged trace stays
byte-identical to a serial run. A worker sends back builtins only (each
slot's trace record and traffic shape), so the caller gets no entaccess
object back.

Chi-squares are derived from the stored winner histograms when they are
read, in plain arithmetic: the p-value is the finite series of the
chi-square survival function for integer degrees of freedom.

Also here: the exhaustive branch enumerator, which walks every measurement
branch of a slot using only the simulator primitives. It is the oracle the
sampled protocol path is verified against (delivery fidelity on every
branch, and winner-identity posteriors for the anonymity checks).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

from ._pool import per_trial
from .circuits import LeaderAwareLayout, end_node_count, prepare_ghz, prepare_leader_aware
from .extraction import apply_up, build_p_sequence, loser_parity
from .protocol import (
    ContentionOutcome,
    ProtocolError,
    SlotType,
    check_ancilla,
    delivered_fidelity,
    local_view,
    message_shape,
    one_hot_winner,
    run_slot,
    slot_messages,
    teleport_receive,
    teleport_rotate,
    winners,
)
from .statevector import (
    Basis,
    RandomSource,
    StateVector,
    _trial_generators,
    as_int,
    enumerate_branches,
    tensor_product,
)

DEFAULT_SLOT_PATTERN = (SlotType.DOWNLINK, SlotType.UPLINK)

# Generic probe payload for exhaustive checks: unequal magnitudes catch bit
# flips, the complex phase catches sign errors.
_PROBE_PAYLOAD = StateVector.qubit(0.6, 0.8j)

# Seeds collect_traffic_shapes scans for every winner to appear.
_TRAFFIC_MAX_SEEDS = 512

# Uniforms one block of fairness trials holds: a row of n per trial, at least one row.
_WINNER_BLOCK = 1 << 16

# Largest n the exhaustive branch oracle walks: its branches, time and memory
# grow about 2.2x per end-node (98,304 branches and 68 MB at n=12).
MAX_ORACLE_N = 8

# Largest session, in end-node slots: it keeps every slot's record, which
# weighs about as much as n + 4 end-nodes. `session --format jsonl` peaks at
# 38 MB plus 0.46 kB per end-node slot (peak RSS, n from 4 to 250,000): 0.95 GB
# at the limit.
MAX_SESSION_NODE_SLOTS = 2_000_000


def _chisquare(counts: list[int]) -> tuple[float, float]:
    """(statistic, p-value) of ``counts`` against the uniform distribution."""
    expected = sum(counts) / len(counts)
    stat = math.fsum((c - expected) ** 2 / expected for c in counts)
    return stat, _chi2_sf(stat, len(counts) - 1)


def _chi2_sf(x: float, dof: int) -> float:
    """P(X > x) for X chi-square with ``dof`` >= 1 degrees of freedom.

    For integer dof it is a finite series (Abramowitz & Stegun 26.4.4 and
    26.4.5) in y = x/2: the sum of y^a e^-y / Gamma(a + 1) over a = 0, 1, ...,
    dof/2 - 1 for even dof, and over a = 1/2, 3/2, ..., dof/2 - 1 plus
    erfc(sqrt(y)) for odd dof. Each term is exponentiated from its logarithm,
    through ``math.lgamma``, so e^-y never underflows on its own for any n
    up to ``MAX_END_NODES``.
    """
    y = x / 2
    if y == 0:
        return 1.0
    log_y = math.log(y)
    terms = [
        math.exp(a * log_y - y - math.lgamma(a + 1))
        for a in (j + dof % 2 / 2 for j in range(dof // 2))
    ]
    if dof % 2:
        terms.append(math.erfc(math.sqrt(y)))
    return min(math.fsum(terms), 1.0)  # rounding can carry the sum past 1 at small x


@dataclass(frozen=True)
class SessionConfig:
    n: int
    seed: int
    slots: tuple[SlotType, ...] = DEFAULT_SLOT_PATTERN
    trials: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", end_node_count(self.n))
        object.__setattr__(self, "trials", as_int("trials", self.trials))
        if self.trials < 1:
            raise ValueError("need at least one trial")
        object.__setattr__(self, "seed", RandomSource.check_seed(self.seed))
        object.__setattr__(self, "slots", tuple(self.slots))
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


# One slot as it crosses the pool: its trace record, then the shape of its
# classical traffic. Builtins only, so no entaccess object is pickled.
SlotRow = tuple[dict, tuple]


def _run_trials(n: int, slots: tuple[SlotType, ...], seed: int, trials: range) -> list[SlotRow]:
    """The row of every slot of a block of consecutive trials of ``seed``, in slot order.

    A ``ProtocolError`` from a slot is raised again with the seed, the trial
    and the slot's session-wide index in front of its message.
    """
    reports = []
    for trial, rng in zip(trials, RandomSource._for_trials(seed, trials)):
        for k, slot_type in enumerate(slots):
            try:
                reports.append(run_slot(n, slot_type, None, rng))
            except ProtocolError as exc:
                index = trial * len(slots) + k
                raise ProtocolError(f"seed {seed}, trial {trial}, slot {index}: {exc}") from exc
    # The rows are built after the block's slots, not between them: there
    # they cost about 2 % more of an n=4 session.
    first = trials.start * len(slots)  # the session-wide index of the block's first slot
    return [
        (r.to_record(i), message_shape(r.messages)) for i, r in enumerate(reports, first)
    ]


def run_session(config: SessionConfig, jobs: int = 1) -> tuple[SessionStats, list[dict]]:
    """Run the configured trials and return (stats, trace records).

    ``jobs`` > 1 distributes trials over processes; the trace is merged in
    trial order, so the output does not depend on the worker count. The
    seed is bound into each block's work, and trial ``t`` draws from
    ``RandomSource((seed, t))``: the streams of all trials of all seeds are
    independent. A session of more than ``MAX_SESSION_NODE_SLOTS``,
    ``trials * len(slots) * (n + 4)``, raises ``ValueError`` before any
    trial runs.
    """
    size = config.trials * len(config.slots) * (config.n + 4)
    if size > MAX_SESSION_NODE_SLOTS:
        raise ValueError(
            f"session of {size} end-node slots (trials x slots x (n + 4)) is over the "
            f"limit of {MAX_SESSION_NODE_SLOTS}: it keeps every slot's record in memory"
        )
    rows = per_trial(
        partial(_run_trials, config.n, config.slots, config.seed), config.trials, jobs
    )
    return _aggregate(config, rows), [record for record, _ in rows]


def _aggregate(config: SessionConfig, rows: list[SlotRow]) -> SessionStats:
    slot_types = [st.value for st in dict.fromkeys(config.slots)]
    winner_hist = {st: {node: 0 for node in range(1, config.n + 1)} for st in slot_types}
    shapes: dict[str, set[tuple]] = {st: set() for st in slot_types}
    fidelities = []
    for record, shape in rows:
        st = record["slot_type"]
        winner_hist[st][record["winner"]] += 1
        shapes[st].add(shape)
        fidelities.append(record["fidelity"])

    classical_bits = {}
    for st in slot_types:
        bits = {sum(size for _, _, size in shape) for shape in shapes[st]}
        if len(bits) > 1:
            raise ProtocolError(f"classical bit budget varied across {st} slots: {bits}")
        classical_bits[st] = bits.pop()

    return SessionStats(
        n=config.n,
        trials=config.trials,
        slot_counts={st: sum(hist.values()) for st, hist in winner_hist.items()},
        winner_hist=winner_hist,
        fidelity_min=min(fidelities),
        fidelity_mean=math.fsum(fidelities) / len(fidelities),  # the same on every Python
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
        stat, p_value = _chisquare(list(self.histogram.values()))
        return {
            "n": self.n,
            "trials": self.trials,
            "seed": self.seed,
            "histogram": {str(k): v for k, v in self.histogram.items()},
            "chi_square": stat,
            "p_value": p_value,
        }


def _contention_winners(n: int, seed: int, trials: range) -> list[int]:
    """The winner of each trial of a block of consecutive trials of ``seed``.

    A trial's n W draws are the first n uniforms of its ``RandomSource((seed,
    t))`` stream, drawn straight from its generator into one row of a matrix
    of at most ``_WINNER_BLOCK`` uniforms; ``winners`` then decides every row
    of the matrix in one comparison.
    """
    import numpy as np

    generators = _trial_generators(seed, trials)
    draws = np.empty((max(1, min(len(trials), _WINNER_BLOCK // n)), n))
    found = []
    for start in range(0, len(trials), len(draws)):
        rows = draws[:len(trials) - start]
        for row, gen in zip(rows, generators):
            gen.random(out=row)
        found += winners(n, rows).tolist()
    return found


def fairness_experiment(n: int, trials: int, seed: int, jobs: int = 1) -> FairnessResult:
    """Repeated contention; chi-square of the winner histogram against uniform.

    ``n``, ``trials`` and ``seed`` are checked as ``SessionConfig`` checks
    them, then ``n`` must be at least 2. The histogram does not depend on
    ``jobs``. Each trial's winner is the one ``sample_contention`` elects
    from the first n draws of its own stream, with no ancilla readout, as
    ``contend`` on a fresh ``prepare_leader_aware(n)`` would, without
    building that state; ``_contention_winners`` decides a block of trials
    at once. The seed is bound into each block's work, and trial ``t``
    draws from ``RandomSource((seed, t))``: the streams of all trials of
    all seeds are independent.
    """
    config = SessionConfig(n, seed, trials=trials)
    if config.n < 2:
        raise ValueError("fairness needs at least two contending end-nodes")
    histogram = {node: 0 for node in range(1, config.n + 1)}
    work = partial(_contention_winners, config.n, config.seed)
    for winner in per_trial(work, config.trials, jobs):
        histogram[winner] += 1
    return FairnessResult(config.n, config.trials, config.seed, histogram)


class SlotBranch(NamedTuple):
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
        report = {loser: (self.loser_outcomes[loser], dummy)}
        messages = slot_messages(slot_type, report, self.q_star, self.g_star, self.parity)
        return local_view(loser, self.w_outcomes[loser - 1], messages)


def enumerate_slot_branches(
    n: int, slot_type: SlotType, payload: StateVector | None = None
) -> list[SlotBranch]:
    """Walk every measurement branch of one slot; probabilities sum to 1.

    It measures by branch enumeration over the per-node extraction
    unitaries, not by the sampled measurements, so it serves as an
    independent oracle for the sampled slot runs. ValueError for n above
    ``MAX_ORACLE_N``, before anything is built. The slot rules themselves
    (the contention checks, the transmitter's rotation, the receiver's
    corrections and the messages) are the protocol's own, called here.
    """
    n = end_node_count(n)
    if n > MAX_ORACLE_N:
        raise ValueError(f"exhaustive branch enumeration is limited to n <= {MAX_ORACLE_N}")
    if payload is None:
        payload = _PROBE_PAYLOAD
    layout = LeaderAwareLayout(n)
    comp = Basis.COMPUTATIONAL
    branches: list[SlotBranch] = []
    lam = prepare_leader_aware(n)
    for w_out, w_prob, lam_post in enumerate_branches(
        lam, layout.w_qubits, [comp] * n
    ):
        winner = one_hot_winner(w_out)
        pair = ContentionOutcome(slot_type, winner)
        for anc, anc_prob, _ in enumerate_branches(
            lam_post, layout.ancilla_qubits, [comp] * layout.m
        ):
            check_ancilla(anc, n, winner)
            pseq = build_p_sequence(winner, n)
            worked = apply_up(prepare_ghz(n + 1), pseq)
            losers = pseq.losers
            for g_out, g_prob, ghz_post in enumerate_branches(
                worked, losers, [comp] * len(losers)
            ):
                g_map = dict(zip(losers, g_out))
                parity = loser_parity(g_out)
                joint = teleport_rotate(tensor_product(ghz_post, payload), n + 1, pair.transmitter)
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
    n = end_node_count(n)
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
            max_deviation=max_dev,
            view_count=len(joint),
            vacuous=n <= 2,
        )
    return AnonymityReport(n=n, per_slot=per_slot)


def collect_traffic_shapes(n: int, slot_type: SlotType) -> dict[int, set[tuple]]:
    """Observed message shapes keyed by winner, scanning seeds until all n winners appear."""
    if end_node_count(n) > _TRAFFIC_MAX_SEEDS:
        raise ValueError(f"n={n} is above the {_TRAFFIC_MAX_SEEDS} seeds scanned for its winners")
    shapes: dict[int, set[tuple]] = {}
    for seed in range(_TRAFFIC_MAX_SEEDS):
        report = run_slot(n, slot_type, None, RandomSource(seed))
        shapes.setdefault(report.outcome.winner, set()).add(message_shape(report.messages))
        if len(shapes) == n:
            break
    if len(shapes) < n:
        raise ProtocolError(
            f"not every winner appeared within {_TRAFFIC_MAX_SEEDS} seeds (got {sorted(shapes)})"
        )
    return shapes
