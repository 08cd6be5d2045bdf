"""Command line outputs, pinned.

`golden_cli.json` holds the stdout and the exit code of `corpus` and
`corpus --json`; of `eval --trace` and `eval --trace --json` for every
definition of the bundled programs, every `EVAL_CASES` term and the
`MIXED_CASES` sums; of
`unitary` and `unitary --json` for every definition of `gates.lb` and
`deutsch.lb`; of `check` and `check --json` for every `goal`; of `parse`
and `parse --json` on the `EVAL_CASES` terms and, with `--type`, on their
distinct types; and of `ortho` and `ortho --json` on the `ORTHO_CASES`.  Each
command runs in-process with the program it names loaded through `--def`.
Every `--json` stdout is one JSON object without NaN or Infinity.

Run this file as a script to rewrite the JSON after an intended change.
"""

import contextlib
import importlib.resources
import io
import json
import pathlib

from basislam.cli import main
from basislam.corpus import CORPUS_NAMES, EVAL_CASES, load_corpus
from basislam.syntax import print_type

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden_cli.json"

# (program or "", left, right, type): well-typed pairs, both verdicts
ORTHO_CASES = [
    ("", "|0>", "|1>", "[B]"),
    ("", "|+>", "|->", "[X]"),
    ("", "|0>", "|+>", "#[B]"),
    ("", "|0>", "|0>", "[B]"),
    ("", "(|0>, |1>)", "(|1>, |1>)", "[B] * [B]"),
    ("gates", "Hd |0>", "Hd |1>", "[X]"),
    ("gates", "Z |1>", "|0>", "[B]"),
    ("gates", "CNOT |+> |0>", "CNOT |-> |0>", "#([B] * [B])"),
]

# (program, term): sums whose steps mix summands of several constructors,
# so that the order key fixes the entry order of every printed step
MIXED_CASES = [
    ("gates", "(Hd |0>, (NOT (Hd |1>), Hd |0>))"),
    ("gates", r"(\x:X. x) + (\y:B. NOT y)"),
]


def commands() -> list[tuple[str, list[str]]]:
    """(program or "", argv without --def) for every pinned command."""
    progs = load_corpus()
    out: list[tuple[str, list[str]]] = [("", ["corpus", "--json"])]
    terms = [(p, name) for p in CORPUS_NAMES for name in progs[p].defs]
    terms += [(p, src) for p, src, _, _ in EVAL_CASES]
    terms += MIXED_CASES
    for pname, src in terms:
        out.append((pname, ["eval", "--trace", src]))
        out.append((pname, ["eval", "--trace", "--json", src]))
    for pname in ("gates", "deutsch"):
        for name in progs[pname].defs:
            out.append((pname, ["unitary", "--json", name]))
    for pname in CORPUS_NAMES:
        for goal in progs[pname].goals:
            out.append(
                (pname, ["check", "--json", goal.name, print_type(goal.type)])
            )
    out.append(("", ["corpus"]))
    for pname in ("gates", "deutsch"):
        for name in progs[pname].defs:
            out.append((pname, ["unitary", name]))
    for pname in CORPUS_NAMES:
        for goal in progs[pname].goals:
            out.append((pname, ["check", goal.name, print_type(goal.type)]))
    types = dict.fromkeys(type_src for _, _, _, type_src in EVAL_CASES)
    for flags in ([], ["--json"]):
        for pname, src, _, _ in EVAL_CASES:
            out.append((pname, ["parse", *flags, src]))
        for type_src in types:
            out.append(("", ["parse", "--type", *flags, type_src]))
    for pname, left, right, type_src in ORTHO_CASES:
        for flags in ([], ["--json"]):
            out.append((pname, ["ortho", *flags, left, right, type_src]))
    return out


def run(pname: str, argv: list[str]) -> dict:
    if pname:
        path = importlib.resources.files("basislam") / "corpus" / f"{pname}.lb"
        argv = argv[:1] + ["--def", str(path)] + argv[1:]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return {"code": code, "stdout": buf.getvalue()}


def golden_rows() -> list[dict]:
    return [
        {"program": pname, "argv": argv, **run(pname, argv)}
        for pname, argv in commands()
    ]


def _no_constant(name: str):
    raise ValueError(f"non-finite number {name} in JSON output")


def test_cli_outputs_match_golden():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [(w["program"], w["argv"]) for w in want] == [
        (p, a) for p, a in commands()
    ]
    for w in want:
        got = run(w["program"], w["argv"])
        assert got == {"code": w["code"], "stdout": w["stdout"]}, (
            w["program"],
            w["argv"],
        )
        if "--json" in w["argv"]:
            text = got["stdout"]
            assert text.count("\n") == 1 and text.endswith("\n"), w["argv"]
            payload = json.loads(text, parse_constant=_no_constant)
            assert isinstance(payload, dict), w["argv"]


if __name__ == "__main__":
    text = json.dumps(golden_rows(), indent=1, ensure_ascii=False)
    GOLDEN.write_text(text + "\n", encoding="utf-8")
