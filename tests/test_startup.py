"""Start-up cost: only the commands that build matrices load numpy, and
no command loads `dataclasses` or `inspect`, which cost more to import
than the package's own classes.

Each case runs in a fresh interpreter, since the test process itself has
numpy loaded long before.
"""

import os
import pathlib
import subprocess
import sys

import pytest

import basislam

SRC = pathlib.Path(basislam.__file__).resolve().parent.parent
GATES = str(SRC / "basislam" / "corpus" / "gates.lb")


def run_fresh(code: str) -> list[str]:
    """Lines printed by code, run in a new interpreter that imports the
    package from the tree under test."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def numpy_after(statement: str) -> tuple[list[str], bool]:
    """Output of the statement, and whether numpy was loaded after it."""
    lines = run_fresh(
        "import sys\n"
        "import basislam.cli as cli\n"
        f"{statement}\n"
        "print('numpy' in sys.modules)\n"
    )
    return lines[:-1], lines[-1] == "True"


@pytest.mark.parametrize("module", ["basislam", "basislam.cli"])
def test_import_leaves_numpy_out(module):
    assert run_fresh(
        f"import sys, {module}\nprint('numpy' in sys.modules)"
    ) == ["False"]


@pytest.mark.parametrize(
    "statement",
    [
        "import basislam",
        "import basislam.cli",
        "import basislam.cli as cli\n"
        "argv = ['eval', '--json', '--def', GATES, 'Hd |0>']\n"
        "assert cli.main(argv) == 0",
    ],
    ids=["basislam", "cli", "eval"],
)
def test_no_class_generation_modules_are_loaded(statement):
    lines = run_fresh(
        f"import sys\nGATES = {GATES!r}\n{statement}\n"
        "print([m for m in ('dataclasses', 'inspect') if m in sys.modules])"
    )
    assert lines[-1] == "[]"


@pytest.mark.parametrize(
    "argv",
    [
        ["parse", "|0>"],
        ["eval", "--json", "--trace", "--def", GATES, "Hd |0>"],
        ["check", "|0>", "[B]"],
    ],
    ids=lambda argv: argv[0],
)
def test_commands_without_matrices_leave_numpy_out(argv):
    out, loaded = numpy_after(f"assert cli.main({argv!r}) == 0")
    assert out and not loaded


# a product of one-summand unit sums is factored without an SVD
@pytest.mark.parametrize(
    "argv",
    [
        ["check", "(|0>, |1>)", "[B] * [B]"],
        ["check", "CNOT", "[B] -> [B] -> [B] * [B]", "--def", GATES],
    ],
    ids=["pair", "CNOT"],
)
def test_checks_of_unit_products_leave_numpy_out(argv):
    out, loaded = numpy_after(f"assert cli.main({argv!r}) == 0")
    assert out and not loaded


def test_unitary_loads_numpy_and_works():
    out, loaded = numpy_after(
        f"assert cli.main(['unitary', 'Hd', '--def', {GATES!r}]) == 0"
    )
    assert loaded
    assert out[-1].startswith("unitary (deviation")


def test_to_vector_loads_numpy_and_works():
    out, loaded = numpy_after(
        "from basislam.basis import multi_ket, to_vector\n"
        "print(to_vector(multi_ket('10'), 2).tolist())"
    )
    assert loaded
    assert out == ["[0j, 0j, (1+0j), 0j]"]
