"""Golden command-line outputs: seeded invocations must reproduce stored stdout.

The first seven files in ``golden/`` were captured from the dense
state-vector simulator that the support-only storage replaced, so they pin
the whole random stream (one draw per measurement, in order) and every
printed digit across that change. ``anonymity --n 4``'s ``max_deviation`` is
float noise around an exact 0 and differs in its last bits between the two
storages; it is compared as a value at most 1e-12, every other byte exactly.
The next six were captured from the separate uplink and downlink slot
bodies that ``run_slot`` replaced, and cover the circuit export, the csv
formats, the session stats document and a jsonl slot. The last three, slots
at n=300 and n=257 and a 20-trial n=64 session, were captured from the slot
that stepped extraction's float walk once per loser and rebuilt the GHZ
state every slot, before it replayed that walk's period from a GHZ state
built once per size. The two ``wide_seed`` files, a fairness run under a
five-word seed (2**128 + 1) and a session under a two-word one (2**32),
were captured while each trial still built numpy's ``SeedSequence(seed,
spawn_key=(trial,))``, before a block of trials came to derive those seed
words in one pass; past four words the seed moves where a trial's words
start in numpy's hash-constant sequence. ``fairness_n300_csv``, 2,500
trials that cross the seed chunk and several blocks of fairness draws, was
captured while each fairness trial still drew its W bits one at a time from
its own ``RandomSource``, before a block of trials came to be decided in one
comparison.

Six invocations that run seeded trials were regenerated when trial ``t`` of
seed ``s`` came to be seeded from the pair ``(s, t)`` instead of ``s ^ t``:
``session_n4_du``, ``session_n14``, ``session_n5_csv``, ``session_n5_json``,
``fairness_n8`` and ``fairness_n6_csv``. No other file moved. Each of
those, ``session_n64_jsonl``, the two ``wide_seed`` files and
``fairness_n300_csv`` (``SEEDED_TRIALS``), is also run with
``--jobs 2``, and with ``--jobs 3`` on three CPUs (the caller and two
workers, with unequal blocks where the trial count is not a multiple of
three), against the same file, so the process-pool path is pinned to the
serial output. ``ALIASES`` spells some invocations another way (long
slot names, ``--out`` as a format, a default format named) and checks them
against the same files. To regenerate a file, run the invocation with
``python -m entaccess`` and redirect stdout. Run as a script
(``python tests/test_golden_cli.py``), this file checks every invocation
and alias through the installed ``entaccess`` console script, each of
``SEEDED_TRIALS`` also at ``--jobs 2`` and ``--jobs 4``, by the same
comparison; the CI workflow's console-script step runs it so.
"""

import difflib
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from entaccess.cli import main

GOLDEN = Path(__file__).parent / "golden"

INVOCATIONS = {
    "session_n4_du": "session --n 4 --seed 7 --trials 50 --slots du --format jsonl",
    "session_n14": "session --n 14 --seed 3 --trials 3 --format jsonl",
    "fairness_n8": "fairness --n 8 --seed 5 --trials 500",
    "elect_n12": "elect --n 12 --seed 9",
    "uplink_n9": "uplink --n 9 --seed 11",
    "downlink_n10": "downlink --n 10 --seed 12",
    "anonymity_n4": "anonymity --n 4",
    "export_circuit_n6": "export-circuit --n 6",
    "session_n5_csv": "session --n 5 --seed 4 --trials 40 --format csv",
    "session_n5_json": "session --n 5 --seed 4 --trials 40",
    "fairness_n6_csv": "fairness --n 6 --seed 2 --trials 300 --format csv",
    "anonymity_n2_csv": "anonymity --n 2 --format csv",
    "uplink_n3_jsonl": "uplink --n 3 --seed 1 --format jsonl",
    "uplink_n300": "uplink --n 300 --seed 5",
    "downlink_n257": "downlink --n 257 --seed 6",
    "session_n64_jsonl": "session --n 64 --seed 3 --trials 20 --format jsonl",
    "fairness_n5_wide_seed_csv": (
        "fairness --n 5 --seed 340282366920938463463374607431768211457 --trials 64 --format csv"
    ),
    "session_n3_wide_seed_jsonl": "session --n 3 --seed 4294967296 --trials 5 --format jsonl",
    "fairness_n300_csv": "fairness --n 300 --seed 11 --trials 2500 --format csv",
}

SEEDED_TRIALS = sorted(name for name, argv in INVOCATIONS.items() if "--trials" in argv)

# Other spellings of golden invocations, each with the golden file it must print.
ALIASES = [
    ("session --n 4 --seed 7 --trials 50 --slots downlink,uplink --format jsonl", "session_n4_du"),
    ("session --n 4 --seed 7 --trials 50 --slots du --out jsonl", "session_n4_du"),
    ("fairness --n 8 --seed 5 --trials 500 --format json", "fairness_n8"),
]

_DEVIATION = re.compile(r'"max_deviation": ([^,}]+)')


def _stdout(capsys, argv: list[str]) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


def _compared(name: str, out: str) -> tuple[str, str]:
    """``out`` and golden file ``name``'s text, which must be equal.

    In ``anonymity_n4`` each ``max_deviation`` is masked in the golden, and in
    ``out`` where it is at most 1e-12, so only a larger one differs.
    """
    expected = (GOLDEN / f"{name}.txt").read_text()
    if name != "anonymity_n4":
        return out, expected

    def mask(match: re.Match) -> str:
        return '"max_deviation": _' if abs(float(match[1])) <= 1e-12 else match[0]

    return _DEVIATION.sub(mask, out), _DEVIATION.sub('"max_deviation": _', expected)


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_matches_golden_output(capsys, name):
    out, expected = _compared(name, _stdout(capsys, INVOCATIONS[name].split()))
    assert out == expected


@pytest.mark.parametrize("argv, name", ALIASES)
def test_alias_matches_golden_output(capsys, argv, name):
    assert _stdout(capsys, argv.split()) == (GOLDEN / f"{name}.txt").read_text()


@pytest.mark.parametrize("name", SEEDED_TRIALS)
def test_pool_matches_golden_output(capsys, name):
    out = _stdout(capsys, [*INVOCATIONS[name].split(), "--jobs", "2"])
    assert out == (GOLDEN / f"{name}.txt").read_text()


@pytest.mark.parametrize("name", SEEDED_TRIALS)
def test_three_process_pool_matches_golden_output(capsys, three_cpus, name):
    out = _stdout(capsys, [*INVOCATIONS[name].split(), "--jobs", "3"])
    assert out == (GOLDEN / f"{name}.txt").read_text()


if __name__ == "__main__":
    script = shutil.which("entaccess")
    if script is None:
        sys.exit("no entaccess console script on PATH")
    runs = [(name, argv.split()) for name, argv in INVOCATIONS.items()]
    runs += [(name, argv.split()) for argv, name in ALIASES]
    runs += [
        (name, [*INVOCATIONS[name].split(), "--jobs", jobs])
        for name in SEEDED_TRIALS for jobs in ("2", "4")
    ]
    failed = 0
    for name, argv in runs:
        done = subprocess.run([script, *argv], capture_output=True, text=True)
        out, expected = _compared(name, done.stdout)
        if done.returncode or out != expected:
            failed += 1
            print(f"FAIL: entaccess {' '.join(argv)} exited {done.returncode}", done.stderr)
            sys.stdout.writelines(
                difflib.unified_diff(expected.splitlines(True), out.splitlines(True),
                                     f"golden/{name}.txt", "stdout")
            )
    print(f"{len(runs) - failed} of {len(runs)} invocations match their goldens")
    sys.exit(1 if failed else 0)
