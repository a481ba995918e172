"""Every runnable example exits 0.

The examples are the end-to-end tours a reader runs first; nothing else
executes them, so a regression in one would otherwise go unnoticed.  Each
runs in a fresh interpreter, exactly as ``python examples/<name>.py``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_exits_zero(path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(path)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    output = proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.returncode == 0, output
