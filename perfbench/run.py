"""Benchmark of entaccess: one workload per invocation, metrics as the last stdout line.

    python3 perfbench/run.py --workload slot_n14 --seed 1 --seconds 16 --trace 0

Run from anywhere inside a checkout that holds src/entaccess; the program is
imported from that source tree. With ``--trace 0`` the run starts three fresh
interpreters one after another. Each imports entaccess, makes one warm-up
call (the set-up time every command-line invocation pays) and then measures
for a third of ``--seconds``: jobs-1 calls, interleaved with jobs-2 calls on
the same inputs. A workload that needs a minimum number of calls (slot_n14's
102 slots, so p90 has ten beyond it) measures longer. With ``--trace 1`` one
interpreter runs the workload untraced, then a fixed number of calls with
every layer traced, and reports per-layer counts and self times. See
README.md for the workloads and the predictions they test.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("session_n4", "slot_n14", "oracle_n5", "fairness_n8")
PROCESSES = 3      # set-ups per untraced run; setup_s is their median
# One BLAS thread per process. At n=14 numpy's matmul would otherwise run two
# OpenBLAS threads that are slower than one on this 2-CPU host and make the
# timings swing with whatever else runs; with jobs 2 they oversubscribe.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
TIME_LIMIT = 170   # seconds for the whole run, which must end within 180 s

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "throughput_jobs2_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git directly (no search outside it)."""
    git = ROOT / ".git"
    head = _read(git / "HEAD")
    if head is None:
        return None
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(git / ref)
    if commit is not None:
        return commit.strip()
    for line in (_read(git / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def manifest(workload: str, seed: int, seconds: int, trace: int, versions: dict) -> dict:
    """Host, versions, commit and seed of this run."""
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((l.split(":", 1)[1].strip() for l in cpuinfo.splitlines()
                  if l.startswith("model name")), platform.processor() or None)
    meminfo = _read("/proc/meminfo") or ""
    mem_kb = next((int(l.split()[1]) for l in meminfo.splitlines()
                   if l.startswith("MemTotal:")), None)
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")) if cache_dir.is_dir() else []:
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level and size and (kind or "").strip() != "Instruction":
            caches[f"L{level.strip()}"] = size.strip()
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": git_commit(),
        "host": {
            "nproc": os.cpu_count(),
            "memory_mb": round(mem_kb / 1024) if mem_kb else None,
            "cpu_model": model,
            "caches": caches,
        },
        "versions": {"python": platform.python_version(), **versions},
        "thread_env": THREAD_ENV,
    }


def run_worker(args, part: int, processes: int, window: float, deadline: float) -> dict:
    """Start one worker, wait for it, and return its JSON result plus its set-up time."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), args.workload,
        "--seed", str(args.seed), "--part", str(part), "--processes", str(processes),
        "--window", repr(window), "--trace", str(args.trace),
    ]
    if args.smoke:
        cmd.append("--smoke")
    env = {**os.environ, **THREAD_ENV}
    started = monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: {args.workload} worker {part} exceeded the time limit")
    finally:
        if proc.poll() is None:  # timed out, or this process was interrupted
            proc.kill()
            proc.communicate()
    if proc.returncode != 0 or not out.strip():
        raise SystemExit(f"perfbench: {args.workload} worker {part} exited {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result["ready_at"] - started
    return result


def decile(values: list[float], k: int) -> float:
    """The k-th decile (k = 1..9), interpolated between samples."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[k - 1]


def end_to_end(results: list[dict]) -> tuple[dict, dict]:
    """Metrics pooled over the workers, and the sample counts behind them."""
    latencies = [t for r in results for t in r["latencies"]]
    calls1 = len(latencies)
    per_call1 = sum(r["units1"] for r in results) / calls1
    batches = [b for r in results for b in r["batches2"]]
    # The host alternates between a fast and a slow phase every few seconds
    # (README.md, "Steadiness"), so a median call mixes the two phases and
    # swings from run to run. A throughput is the rate that nine calls in ten
    # reach or beat, which repeats.
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        # Every jobs-1 call of a workload does the same number of units.
        "throughput_per_s": per_call1 / decile(latencies, 9),
        "throughput_jobs2_per_s": decile([u / t for u, t in batches], 1),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in results) / 1024,
    }
    counts = {"jobs1_calls": calls1, "units_per_call": per_call1, "jobs2_calls": len(batches),
              "setups": len(results), "latency_p50_ms": 1e3 * statistics.median(latencies),
              "latency_p90_ms": 1e3 * decile(latencies, 9)}
    return metrics, counts


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark of entaccess (see perfbench/README.md).")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, to check the benchmark itself (see smoke.py)")
    args = parser.parse_args()
    # On SIGTERM, unwind so that run_worker stops the worker it started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "entaccess" / "__init__.py").is_file():
        print(f"perfbench: no src/entaccess in {ROOT}; run from a checkout of the program",
              file=sys.stderr)
        return 2

    deadline = monotonic() + TIME_LIMIT
    processes = 1 if args.trace else PROCESSES
    window = args.seconds / processes
    results = [run_worker(args, part, processes, window, deadline) for part in range(processes)]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)

    if args.trace:
        from tracer import PER_LAYER_METRICS

        metrics = results[0]["layer"]
        units = {name: unit for name, unit, _ in PER_LAYER_METRICS}
        counts = {"traced_calls": results[0]["traced_calls"]}
    else:
        metrics, counts = end_to_end(results)
        units = END_TO_END_UNITS
    info = manifest(args.workload, args.seed, args.seconds, args.trace, results[0]["versions"])
    print("manifest " + json.dumps(info, sort_keys=True))
    print("samples " + json.dumps(counts, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name:40s} {value:>16.6g} {units[name]}")
    print(f"{'failed_ratio':40s} {failed / attempted:>16.6g} failed/attempted ({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
