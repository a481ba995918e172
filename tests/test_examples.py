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

#: Known failures: example -> the error it ends on.  Such an example is an
#: xfail only while it fails with exactly that error; ``strict`` fails the
#: test once the example passes, so the entry is removed with the fix.
KNOWN_FAILURES = {
    # ROADMAP item 1(b): the replica counts a keyreg block's own key
    # announcement toward that block's certificate; the verifier does not.
    "consortium_reconfiguration.py": (
        "VerificationError: block 335: certificate has 2 valid "
        "recorded-key signatures, needs 3"),
}


class KnownExampleFailure(Exception):
    """The example failed with the error recorded in KNOWN_FAILURES."""


def _cases():
    for path in EXAMPLES:
        error = KNOWN_FAILURES.get(path.name)
        marks = ([pytest.mark.xfail(strict=True, raises=KnownExampleFailure,
                                    reason=error)] if error else [])
        yield pytest.param(path, id=path.stem, marks=marks)


@pytest.mark.parametrize("path", _cases())
def test_example_exits_zero(path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(path)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    output = proc.stdout[-2000:] + proc.stderr[-2000:]
    error = KNOWN_FAILURES.get(path.name)
    if proc.returncode != 0 and error is not None and error in proc.stderr:
        raise KnownExampleFailure(error)
    assert proc.returncode == 0, output
