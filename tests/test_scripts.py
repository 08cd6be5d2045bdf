"""The experiment scripts under scripts/ run at their default flags, end
with their success line and write nothing to stderr.  They run with
warnings as errors, as the tests themselves do: pytest's warning filter
does not reach a subprocess."""

import os
import subprocess
import sys

import pytest

import basislam

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(basislam.__file__)))


@pytest.mark.parametrize(
    "script, last_line",
    [
        ("run_deutsch.py", "result: all oracles distinguished"),
        ("run_teleport.py", "result: all states teleported exactly"),
        ("gate_report.py", "result: verdicts and membership agree"),
    ],
)
def test_script_succeeds(script, last_line):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [
            sys.executable,
            "-W",
            "error",
            os.path.join(ROOT, "scripts", script),
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == last_line
    assert proc.stderr == ""
