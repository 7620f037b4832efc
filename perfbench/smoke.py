"""Quick check of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/smoke.py

For every workload: an untraced run and two traced runs with ``--smoke``
sizes. Each must exit 0 and end with the result line described in README.md,
report no failed operation, emit exactly the metrics BENCHMARK.json
names with their units, and (traced) repeat its counts exactly. Finally the
benchmark must refuse to run, with a non-zero exit and no result line, in a
directory that holds only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=root, timeout=170,
    )


def result_line(done: subprocess.CompletedProcess, what: str) -> dict:
    if done.returncode != 0:
        raise AssertionError(f"{what} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise AssertionError(f"{what}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        raise AssertionError(f"{what}: {result['failed']} of {result['attempted']} failed\n{done.stderr}")
    return result


def check_metrics(result: dict, expected: list[dict], what: str) -> None:
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    if got != want:
        raise AssertionError(f"{what}: metrics differ from BENCHMARK.json: "
                             f"{sorted(set(got.items()) ^ set(want.items()))}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        result = result_line(run(ROOT, workload, 0), f"{workload} untraced")
        check_metrics(result, spec["end_to_end"], workload)
        if any(m["value"] <= 0 for m in result["metrics"].values()):
            raise AssertionError(f"{workload}: a metric is not positive: {result['metrics']}")
        traced = [result_line(run(ROOT, workload, 1), f"{workload} traced") for _ in range(2)]
        check_metrics(traced[0], spec["per_layer"], f"{workload} traced")
        counts = [{k: m["value"] for k, m in t["metrics"].items() if m["unit"] in ("count", "B")}
                  for t in traced]
        if counts[0] != counts[1]:
            raise AssertionError(f"{workload}: traced counts differ between two runs")
        print(f"ok {workload}")

    with tempfile.TemporaryDirectory(dir=HERE) as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("tmp*", "__pycache__", "traces"))
        done = run(bare, spec["workloads"][0]["name"], 0)
        if done.returncode == 0 or done.stdout.strip():
            raise AssertionError("the benchmark ran without the program's sources")
    print("ok refuses to run without src/entaccess")
    return 0


if __name__ == "__main__":
    sys.exit(main())
