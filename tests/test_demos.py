"""The demos must print exactly their stored output.

Each script in ``demos/`` runs in its own interpreter, with ``src`` first on
its import path, and its stdout is compared byte for byte with
``golden/demo_NN.txt``. The demos are seeded, so any change to the random
stream or to printed digits shows here. To regenerate a file, run the demo
with ``PYTHONPATH=src python demos/NN_*.py`` and redirect stdout.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden"
DEMOS = sorted((ROOT / "demos").glob("[0-9][0-9]_*.py"))


def test_every_demo_has_a_golden():
    assert len(DEMOS) == 4
    assert sorted(g.name for g in GOLDEN.glob("demo_*.txt")) == [
        f"demo_{d.name[:2]}.txt" for d in DEMOS
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_matches_golden_output(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == (GOLDEN / f"demo_{demo.name[:2]}.txt").read_text()
