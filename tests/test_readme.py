"""The Python examples in README.md must run.

Each ```` ```python ```` block runs in its own interpreter, with ``src`` first
on its import path, and must exit 0. Their output is not compared: the
examples show usage, and the demos' goldens pin printed results.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_example_runs(block):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", block], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
