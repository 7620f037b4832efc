"""One measuring process: import, warm up, measure, print one JSON line.

Started by run.py in a fresh interpreter, so its set-up time is what every
command-line invocation pays. Not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def monotonic() -> float:
    """System-wide clock, comparable with the parent's reading."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def import_entaccess(trace: bool) -> dict[str, float]:
    """Import the program from the checkout's src/; in a traced run, time the parts."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    timings = {}
    if trace:
        import numpy  # noqa: F401  (scipy.stats' own import time excludes numpy's)

        before_scipy = time.perf_counter()
        import scipy.stats  # noqa: F401

        timings["setup.scipy_stats_import_s"] = time.perf_counter() - before_scipy
    import entaccess

    timings["setup.entaccess_import_s"] = time.perf_counter() - start
    if not Path(entaccess.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"imported entaccess from {entaccess.__file__}, not from {src}")
    return timings


class Inputs:
    """The workload's input stream, indexed so both phases replay the same inputs."""

    def __init__(self, workload, rng: random.Random):
        self._stream = workload.inputs(rng)
        self._items: list = []

    def __getitem__(self, index: int):
        while len(self._items) <= index:
            self._items.append(next(self._stream))
        return self._items[index]


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.failed <= 5:
                print(f"perfbench: {what}: {'; '.join(problems[:3])}", file=sys.stderr)


def attempt(tally: Tally, what: str, call):
    """Run ``call`` (returning (result, problems)); None when it raised."""
    try:
        result, problems = call()
    except Exception as exc:  # a failed operation is counted, not fatal
        tally.record(what, [f"{type(exc).__name__}: {exc}"])
        return None
    tally.record(what, problems)
    return result


def call1(workload, tally: Tally, index: int, inp):
    """One timed jobs-1 call: (latency, output), or None when it failed to run."""

    def call():
        start = time.perf_counter()
        out = workload.op1(inp)
        return (time.perf_counter() - start, out), workload.check1(inp, out)

    return attempt(tally, f"{workload.name} call {index}", call)


def run_untraced(workload, inputs, tally, window: float, processes: int) -> dict:
    """Jobs-1 calls, every few of them followed by a jobs-2 call on the same input.

    Interleaving the two lets both see the same phases of the host's speed.
    """
    min_calls = max(1, math.ceil(workload.p90_samples / processes))
    latencies, units, batches = [], 0, []
    deadline = time.perf_counter() + window
    index = 0
    while index < min_calls or time.perf_counter() < deadline:
        inp = inputs[index]
        result = call1(workload, tally, index, inp)
        ref = None
        if result is not None:
            latencies.append(result[0])
            units += workload.units1(inp, result[1])
            ref = result[1]
        if index % workload.jobs1_per_jobs2 == 0:

            def call2():
                start = time.perf_counter()
                done, problems = workload.op2(inp, ref)
                return (done, time.perf_counter() - start), problems

            batch = attempt(tally, f"{workload.name} jobs-2 call {index}", call2)
            if batch is not None:
                batches.append(batch)
        index += 1
    return {"latencies": latencies, "units1": units, "batches2": batches}


def run_traced(workload, inputs, tally, window: float, spans_path: Path) -> dict:
    """Untraced calls, then a fixed number of traced calls on the same inputs."""
    import entaccess

    from tracer import Tracer

    latencies, units, refs = [], 0, {}
    deadline = time.perf_counter() + window / 2
    index = 0
    while index < workload.trace_ops or time.perf_counter() < deadline:
        result = call1(workload, tally, index, inputs[index])
        if result is not None:
            latencies.append(result[0])
            units += workload.units1(inputs[index], result[1])
            if index < workload.trace_ops:
                refs[index] = result[1]
        index += 1
    # Like for like on a host whose speed alternates: the fastest call each side.
    untraced = units / len(latencies) / min(latencies) if latencies else 0.0

    tracer = Tracer()
    tracer.install(entaccess)
    traced_op = tracer.span("bench.op", workload.trace_op)
    traced = 0.0
    for index in range(workload.trace_ops):
        inp = inputs[index]
        tracer.keep_spans = index == 0

        def call():
            start = time.perf_counter()
            out = traced_op(inp)
            elapsed = time.perf_counter() - start
            if index not in refs:
                return (elapsed, out), ["untraced reference call failed"]
            same = workload.summary(out) == workload.summary(refs[index])
            return (elapsed, out), [] if same else ["traced call differs from untraced call"]

        result = attempt(tally, f"{workload.name} traced call {index}", call)
        if result is not None:
            traced = max(traced, workload.units1(inp, result[1]) / result[0])

    # The first traced call's spans, one per line, times relative to its start.
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans = sorted(tracer.spans, key=lambda span: span[3])
    origin = spans[0][3] if spans else 0
    spans_path.write_text("[\n" + ",\n".join(
        json.dumps({"id": sid, "parent": parent, "name": name,
                    "start_us": (start - origin) / 1e3, "dur_us": (end - start) / 1e3})
        for sid, parent, name, start, end in spans
    ) + "\n]\n")

    layer = tracer.layer_metrics()
    layer["trace.untraced_throughput_per_s"] = untraced
    layer["trace.traced_throughput_per_s"] = traced
    layer["trace.overhead_ratio"] = untraced / traced if traced else 0.0
    return {"layer": layer, "traced_calls": workload.trace_ops}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--part", type=int, required=True, help="index of this process in the run")
    parser.add_argument("--processes", type=int, required=True)
    parser.add_argument("--window", type=float, required=True, help="seconds this process measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    imports = import_entaccess(bool(args.trace))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.smoke)
    tally = Tally()
    key = f"{args.workload}:{args.seed}:{args.part}"
    warm = Inputs(workload, random.Random(key + ":warm-up"))[0]
    attempt(tally, f"{workload.name} warm-up", lambda: (None, workload.check1(warm, workload.op1(warm))))
    ready_at = monotonic()

    inputs = Inputs(workload, random.Random(key))
    if args.trace:
        spans_path = ROOT / "perfbench" / "traces" / f"{args.workload}-seed{args.seed}.json"
        result = run_traced(workload, inputs, tally, args.window, spans_path)
        result["layer"].update(imports)
    else:
        result = run_untraced(workload, inputs, tally, args.window, args.processes)
    import numpy
    import scipy

    result.update(
        versions={"numpy": numpy.__version__, "scipy": scipy.__version__},
        ready_at=ready_at,
        attempted=tally.attempted,
        failed=tally.failed,
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
