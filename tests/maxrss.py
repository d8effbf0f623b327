"""Peak RSS of a command, measured under a small wrapper interpreter.

A child's ru_maxrss starts from its parent's RSS at exec, so a command
started straight from pytest reports at least pytest's own peak, whatever
the tests before it left behind. The command runs instead under a fresh
small interpreter, which reads the command's peak with RUSAGE_CHILDREN.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import dccodes

# Runs argv[2:] and writes its exit code and peak RSS to the file argv[1].
_WRAPPER = """
import resource, subprocess, sys
rc = subprocess.call(sys.argv[2:])
usage = resource.getrusage(resource.RUSAGE_CHILDREN)
open(sys.argv[1], "w").write(f"{rc} {usage.ru_maxrss}")
"""


def run_measured(argv, **kwargs) -> tuple[subprocess.CompletedProcess, float]:
    """Run argv under the wrapper, with its output captured.

    Returns the completed process, carrying argv's own exit code, and
    argv's peak RSS in MB. Keyword arguments go to subprocess.run.
    """
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "report"
        res = subprocess.run(
            [sys.executable, "-c", _WRAPPER, str(report), *argv],
            capture_output=True, **kwargs,
        )
        rc, maxrss = map(int, report.read_text().split())
    res.returncode = rc
    return res, maxrss / (2**20 if sys.platform == "darwin" else 2**10)


def run_script(script: str, timeout: float) -> dict:
    """Run script in a fresh interpreter with this dccodes importable and
    return the JSON object it prints, with the script's peak RSS as "mb"."""
    src = str(Path(dccodes.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    res, mb = run_measured(
        [sys.executable, "-c", script], text=True, env=env, timeout=timeout
    )
    assert res.returncode == 0, res.stderr
    return {**json.loads(res.stdout), "mb": mb}
