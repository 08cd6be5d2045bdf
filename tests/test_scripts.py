"""The experiment scripts under scripts/ run at their default flags, end
with their success line and write nothing to stderr.  They run with
warnings as errors, as the tests themselves do: pytest's warning filter
does not reach a subprocess.

Their whole stdout is pinned in `golden_scripts.json`: its `steps=`
counts and normal forms are reduction output, so a change to `run` or
`evaluate` that changes a step count or a coefficient shows here.  Two
fields are numpy floating point that is not pinned, since its last bits
may differ across numpy builds and Python versions: gate_report.py's
`deviation=` (the largest entry of a gram matrix minus the identity)
and run_teleport.py's `residual=` and worst residual (their input states
are drawn and normalised by numpy).  Both are masked to `<float>` on
either side; every other character is compared.

Run this file as a script to rewrite the JSON after an intended change.
"""

import functools
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import basislam

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(basislam.__file__)))
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden_scripts.json"
SCRIPTS = ("run_deutsch.py", "run_teleport.py", "gate_report.py")

# the numpy fields, each up to the float it prints
INEXACT = re.compile(
    r"(deviation=|residual=|worst residual over \d+ states: )\S+"
)


@functools.cache
def run_script(script: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
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


def masked(stdout: str) -> str:
    return INEXACT.sub(r"\1<float>", stdout)


@pytest.mark.parametrize(
    "script, last_line",
    [
        ("run_deutsch.py", "result: all oracles distinguished"),
        ("run_teleport.py", "result: all states teleported exactly"),
        ("gate_report.py", "result: verdicts and membership agree"),
    ],
)
def test_script_succeeds(script, last_line):
    proc = run_script(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == last_line
    assert proc.stderr == ""


@pytest.mark.parametrize("script", SCRIPTS)
def test_script_output_matches_golden(script):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert list(want) == list(SCRIPTS)
    proc = run_script(script)
    assert proc.returncode == 0, proc.stderr
    assert masked(proc.stdout) == want[script]


def test_mask_leaves_only_the_numpy_floats_out():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    masks = {s: want[s].count("<float>") for s in SCRIPTS}
    # none; one per state and the worst residual; one per gate
    assert masks == {
        "run_deutsch.py": 0,
        "run_teleport.py": 21,
        "gate_report.py": 8,
    }


if __name__ == "__main__":
    rows = {s: masked(run_script(s).stdout) for s in SCRIPTS}
    text = json.dumps(rows, indent=1, ensure_ascii=False)
    GOLDEN.write_text(text + "\n", encoding="utf-8")
