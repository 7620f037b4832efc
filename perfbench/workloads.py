"""The benchmark's four workloads: inputs from a seed, timed calls, output checks.

Each workload is a closed loop with one client: the next call starts only
after the last returns. A workload has a jobs-1 call (``op1``) and a jobs-2
call (``op2``) on the same inputs; see README.md for why each
workload exists and what it predicts.

Program seeds are drawn as multiples of 2**SEED_SHIFT. The program derives
its trial seeds as ``seed ^ trial``, so two calls whose seeds differ only in
bits below the trial count would replay each other's trials; clearing the
low bits keeps every call's trials distinct.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import multiprocessing
import random
from concurrent.futures import ProcessPoolExecutor

import entaccess as ea
import entaccess.cli  # noqa: F401  (not imported by the package)

TOL = 1e-10
SEED_SHIFT = 20


def program_seed(rng: random.Random) -> int:
    return rng.getrandbits(31) << SEED_SHIFT


def haar_payload(rng: random.Random):
    """A payload qubit drawn uniformly from the Bloch sphere by the benchmark."""
    half = 0.5 * math.acos(2.0 * rng.random() - 1.0)
    phi = 2.0 * math.pi * rng.random()
    return ea.StateVector.qubit(math.cos(half), complex(math.cos(phi), math.sin(phi)) * math.sin(half))


def _slot_problems(n: int, slot_type: str, record: dict) -> list[str]:
    """Checks one slot record (``SlotReport.to_record`` shape) against the protocol's claims."""
    problems = []
    if abs(record["fidelity"] - 1.0) > TOL:
        problems.append(f"{slot_type} slot fidelity {record['fidelity']!r}")
    w = record["w_outcomes"]
    winner = record["winner"]
    if sum(w) != 1 or w[winner - 1] != 1:
        problems.append(f"contention outcomes {w} do not name winner {winner}")
    m = ea.ancilla_count(n)
    if list(record["ancilla"]) != [((winner - 1) >> j) & 1 for j in range(m)]:
        problems.append(f"ancilla {record['ancilla']} is not winner {winner}'s codeword")
    expected_messages = n + (1 if slot_type == "downlink" else 0)
    if len(record["messages"]) != expected_messages:
        problems.append(f"{len(record['messages'])} messages, expected {expected_messages}")
    return problems


def compose_slot(n: int, slot_type: str, seed: int) -> tuple:
    """One slot built from the layers' public calls, in ``run_*_slot``'s order.

    Consumes the random stream exactly as ``run_uplink_slot`` and
    ``run_downlink_slot`` do, so for the same seed it must reproduce their
    winner, contention outcomes, ancilla, parity and delivered fidelity.
    """
    rng = ea.RandomSource(seed)
    payloads = [ea.haar_qubit(rng) for _ in range(n)]
    layout = ea.LeaderAwareLayout(n)
    winner, w_outcomes, lam = ea.contend(ea.prepare_leader_aware(n), rng)
    ancilla, _ = ea.read_ancillas(lam, layout, rng)
    if ea.decode_ancilla(ancilla, n) != winner:
        raise ea.ProtocolError("ancilla readout does not name the winner")
    ext = ea.extract_epr(ea.prepare_ghz(n + 1), ea.build_p_sequence(winner, n), rng)
    payload = payloads[winner - 1]
    uplink = slot_type == "uplink"
    if uplink:
        joint = ea.tensor_product(ext.state, payload)
        q_star, g_star, joint = ea.teleport_send(joint, n + 1, winner, rng)
    for node in range(1, n + 1):
        if node != winner:
            rng.bit()  # a loser's dummy q bit
        elif not uplink:
            rng.bit()  # the downlink winner's dummy g and q bits
            rng.bit()
    if not uplink:
        joint = ea.tensor_product(ext.state, payload)
        q_star, g_star, joint = ea.teleport_send(joint, n + 1, 0, rng)
    receiver, sender = (0, winner) if uplink else (winner, 0)
    final = ea.teleport_receive(joint, receiver, q_star, g_star, ext.parity)
    pinned = dict(ext.outcomes)
    pinned[sender] = g_star
    pinned[n + 1] = q_star
    vectors = [
        payload.amplitudes if q == receiver else ((1.0, 0.0) if pinned[q] == 0 else (0.0, 1.0))
        for q in range(n + 2)
    ]
    delivered = ea.fidelity(final, ea.product_state(vectors))
    return winner, tuple(w_outcomes), tuple(ancilla), ext.parity, delivered


class Workload:
    """Base: subclasses set the sizes and define the calls and checks."""

    name = ""
    jobs1_per_jobs2 = 1  # jobs-1 calls per jobs-2 call
    p90_samples = 0      # jobs-1 calls per run, at least, whatever the window
    trace_ops = 2        # calls traced, a fixed number so counts repeat exactly

    def inputs(self, rng: random.Random):
        """Endless input stream; the same rng state gives the same stream."""
        while True:
            yield program_seed(rng)

    def op1(self, inp):
        raise NotImplementedError

    def units1(self, inp, out) -> int:
        raise NotImplementedError

    def check1(self, inp, out) -> list[str]:
        raise NotImplementedError

    def op2(self, inp, ref) -> tuple[int, list[str]]:
        """Jobs-2 call: (work units done, problems). ``ref`` is op1's output for ``inp``, or None."""
        raise NotImplementedError

    def trace_op(self, inp):
        return self.op1(inp)

    def summary(self, out):
        """What a traced call must reproduce of the untraced call's output."""
        return out


class SessionN4(Workload):
    name = "session_n4"

    def __init__(self, smoke: bool):
        self.n, self.trials = (2, 2) if smoke else (4, 50)

    def _cli(self, seed: int, jobs: int) -> str:
        argv = [
            "session", "--n", str(self.n), "--seed", str(seed), "--trials", str(self.trials),
            "--slots", "du", "--format", "jsonl", "--jobs", str(jobs),
        ]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = ea.cli.main(argv)
        if status != 0:
            raise RuntimeError(f"entaccess session exited {status}")
        return buf.getvalue()

    def op1(self, inp):
        return self._cli(inp, 1)

    def units1(self, inp, out) -> int:
        return 2 * self.trials

    def check1(self, inp, out) -> list[str]:
        lines = out.splitlines()
        if len(lines) != 2 * self.trials:
            return [f"{len(lines)} jsonl lines, expected {2 * self.trials}"]
        problems = []
        shapes: dict[str, set] = {}
        for index, line in enumerate(lines):
            record = json.loads(line)
            if record["slot"] != index:
                problems.append(f"record {index} is numbered {record['slot']}")
            problems += _slot_problems(self.n, record["slot_type"], record)
            shape = tuple((m["from"], m["to"], m["type"]) for m in record["messages"])
            shapes.setdefault(record["slot_type"], set()).add(shape)
        if sorted(shapes) != ["downlink", "uplink"]:
            problems.append(f"slot types {sorted(shapes)}")
        problems += [f"{st} slots have {len(s)} message shapes" for st, s in shapes.items() if len(s) != 1]
        return problems

    def op2(self, inp, ref):
        out = self._cli(inp, 2)
        if ref is None:
            return 2 * self.trials, self.check1(inp, out)
        return 2 * self.trials, [] if out == ref else ["--jobs 2 output differs from --jobs 1"]


class SlotN14(Workload):
    name = "slot_n14"
    jobs1_per_jobs2 = 4
    trace_ops = 4
    p90_samples = 102  # jobs-1 slots per run, so p90 has at least 10 beyond it

    def __init__(self, smoke: bool):
        self.n, self.session_trials = (3, 2) if smoke else (14, 2)

    def inputs(self, rng):
        while True:
            yield "uplink", program_seed(rng)
            yield "downlink", program_seed(rng)

    def op1(self, inp):
        slot_type, seed = inp
        run = ea.run_uplink_slot if slot_type == "uplink" else ea.run_downlink_slot
        return run(self.n, None, ea.RandomSource(seed))

    def units1(self, inp, out) -> int:
        return 1

    def check1(self, inp, out) -> list[str]:
        return _slot_problems(self.n, inp[0], out.to_record(0))

    def op2(self, inp, ref):
        # The program's own process pool over the same slot functions.
        config = ea.SessionConfig(n=self.n, seed=inp[1], trials=self.session_trials)
        _, records = ea.run_session(config, jobs=2)
        problems = []
        for record in records:
            problems += _slot_problems(self.n, record["slot_type"], record)
        return len(records), problems

    def trace_op(self, inp):
        return compose_slot(self.n, inp[0], inp[1])

    def summary(self, out):
        if isinstance(out, tuple):  # already compose_slot's summary
            return out
        return (out.outcome.winner, tuple(out.w_outcomes), tuple(out.ancilla), out.parity,
                out.teleport_fidelity)


def _oracle_client(args) -> tuple[int, list[str]]:
    workload, inp = args
    out = workload.op1(inp)
    return workload.units1(inp, out), workload.check1(inp, out)


class OracleN5(Workload):
    name = "oracle_n5"

    def __init__(self, smoke: bool):
        # Within the sizes the acceptance suite checks exhaustively (n = 2..6).
        # At n=8 one call takes about 3 s: too few calls per run to repeat
        # from run to run on a shared host (README.md, "Steadiness").
        self.n = 2 if smoke else 5

    def inputs(self, rng):
        while True:
            yield "uplink", haar_payload(rng)
            yield "downlink", haar_payload(rng)

    def op1(self, inp):
        slot_type, payload = inp
        return ea.enumerate_slot_branches(self.n, ea.SlotType(slot_type), payload)

    def units1(self, inp, out) -> int:
        return len(out)

    def check1(self, inp, out) -> list[str]:
        problems = []
        expected = self.n * 2 ** (self.n - 1) * 4  # winner x loser bits x teleport bits
        if len(out) != expected:
            problems.append(f"{len(out)} branches, expected {expected}")
        total = math.fsum(b.probability for b in out)
        if abs(total - 1.0) > TOL:
            problems.append(f"branch probabilities sum to {total!r}")
        bad = [b.delivered_fidelity for b in out if abs(b.delivered_fidelity - 1.0) > TOL]
        if bad:
            problems.append(f"{len(bad)} branches deliver fidelity off 1, e.g. {bad[0]!r}")
        return problems

    def op2(self, inp, ref):
        # The program has no parallel oracle: two clients run the uplink and
        # downlink enumerations at once, in forked processes like the
        # program's own pools, each checking its own output.
        _, payload = inp
        calls = [(self, ("uplink", payload)), (self, ("downlink", payload))]
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=2, mp_context=context) as pool:
            results = list(pool.map(_oracle_client, calls))
        return sum(u for u, _ in results), [p for _, ps in results for p in ps]

    def summary(self, out):
        return [
            (b.winner, b.w_outcomes, b.ancilla, b.parity, b.q_star, b.g_star,
             b.probability, b.delivered_fidelity)
            for b in out
        ]


class FairnessN8(Workload):
    name = "fairness_n8"

    def __init__(self, smoke: bool):
        self.n, self.trials = (2, 20) if smoke else (8, 200)

    def op1(self, inp):
        return ea.fairness_experiment(self.n, self.trials, inp, jobs=1)

    def units1(self, inp, out) -> int:
        return self.trials

    def check1(self, inp, out) -> list[str]:
        problems = []
        if sorted(out.histogram) != list(range(1, self.n + 1)):
            problems.append(f"histogram keys {sorted(out.histogram)}")
        if sum(out.histogram.values()) != self.trials:
            problems.append(f"histogram sums to {sum(out.histogram.values())}, not {self.trials}")
        if not math.isfinite(out.chi_square):
            problems.append(f"chi-square {out.chi_square!r}")
        return problems

    def op2(self, inp, ref):
        out = ea.fairness_experiment(self.n, self.trials, inp, jobs=2)
        if ref is None:
            return self.trials, self.check1(inp, out)
        return self.trials, [] if out == ref else ["--jobs 2 histogram differs from --jobs 1"]


WORKLOADS = {w.name: w for w in (SessionN4, SlotN14, OracleN5, FairnessN8)}
