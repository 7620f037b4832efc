"""Repeat the benchmark over seeds and summarise how steady each metric is.

    python3 perfbench/collect.py --runs 10 --out perfbench/baseline/<label>.json
    python3 perfbench/collect.py --workloads oracle_n5 --runs 5 --trace-runs 0

For each workload: ``--runs`` untraced runs, seeds first-seed, first-seed+1,
...; then ``--trace-runs`` traced runs with one seed, whose counts must agree
exactly. Prints, per end-to-end metric, the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, i.e. the
distance between the quartiles as a share of the median, next to the bound
from BENCHMARK.json. The summary written with ``--out`` is the record a later
change compares against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=200,
    )
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    result["manifest"] = json.loads(next(l for l in lines if l.startswith("manifest "))[9:])
    result["samples"] = json.loads(next(l for l in lines if l.startswith("samples "))[8:])
    return result


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace-runs", type=int, default=2)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    summary: dict = {"seconds": seconds, "workloads": {}}
    steady = True
    for workload in args.workloads:
        runs = [run_once(workload, args.first_seed + i, seconds, 0) for i in range(args.runs)]
        entry = {
            "seeds": [r["manifest"]["seed"] for r in runs],
            "wall_s": summarise([r["wall_s"] for r in runs]),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "samples": runs[0]["samples"],
            "metrics": {},
        }
        summary.setdefault("manifest", runs[0]["manifest"])
        print(f"== {workload}: {args.runs} runs, wall median {entry['wall_s']['median']:.1f} s, "
              f"failed {entry['failed']}/{entry['attempted']}")
        for name, bound in bounds.items():
            stats = summarise([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = runs[0]["metrics"][name]["unit"]
            entry["metrics"][name] = stats
            ok = name == "setup_s" or stats["spread"] < bound / 3
            steady &= ok
            print(f"  {name:24s} median {stats['median']:12.6g} {stats['unit']:4s} "
                  f"spread {stats['spread']:.4f} (bound {bound}){'' if ok else '  <-- over bound/3'}")
        if args.trace_runs:
            traced = [run_once(workload, args.first_seed, seconds, 1)
                      for _ in range(args.trace_runs)]
            counts = [{k: v["value"] for k, v in t["metrics"].items() if v["unit"] in ("count", "B")}
                      for t in traced]
            repeat = all(c == counts[0] for c in counts)
            steady &= repeat and all(t["correct"] for t in traced)
            entry["trace"] = {
                "seed": args.first_seed,
                "counts_repeat": repeat,
                "correct": [t["correct"] for t in traced],
                "metrics": {k: v["value"] for k, v in traced[0]["metrics"].items()},
            }
            print(f"  traced: counts repeat {repeat}, overhead "
                  f"{traced[0]['metrics']['trace.overhead_ratio']['value']:.3f}x, "
                  f"correct {[t['correct'] for t in traced]}")
        summary["workloads"][workload] = entry
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
