"""Whole derivations and error selection, pinned.

For every type goal of the bundled programs and every `EVAL_CASES`
judgement, `golden_derivations.json` holds the pre-order (rule, note)
list of the derivation, and for the same term checked against `[B]`,
`#[B]` and `[B] -> [B]` either the root rule or the kind and text of the
error the backtracking checker reports.  A change to the order in which
the checker tries its alternatives, or to how it picks the reported
error, shows up here.

Run this file as a script to rewrite the JSON after an intended change.
"""

import json
import pathlib
import re

from basislam.checker import CheckError, check
from basislam.corpus import EVAL_CASES, load_corpus
from basislam.syntax import parse_term, parse_type, print_type

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden_derivations.json"
OTHER_GOALS = ("[B]", "#[B]", "[B] -> [B]")


def _outcome(term, goal) -> dict:
    try:
        return {"rule": check({}, term, goal).rule}
    except CheckError as e:
        return {"kind": e.kind.name, "error": str(e)}


def golden_rows() -> list[dict]:
    progs = load_corpus()
    judgements = [
        (pname, goal.name, prog.defs[goal.name], goal.type)
        for pname, prog in progs.items()
        for goal in prog.goals
    ]
    for pname, src, _, ty in EVAL_CASES:
        bases = progs[pname].all_bases()
        term = parse_term(src, bases, progs[pname].defs)
        judgements.append((pname, src, term, parse_type(ty, bases)))
    return [
        {
            "program": pname,
            "term": name,
            "goal": print_type(goal),
            "derivation": [
                [n.rule, n.note] for n in check({}, term, goal).walk()
            ],
            "against": {
                src: _outcome(term, parse_type(src)) for src in OTHER_GOALS
            },
        }
        for pname, name, term, goal in judgements
    ]


def test_derivations_and_errors_match_golden():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = golden_rows()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w, (w["program"], w["term"], w["goal"])


if __name__ == "__main__":
    text = json.dumps(golden_rows(), indent=1, ensure_ascii=False)
    # one line per (rule, note) pair and per successful outcome
    text = re.sub(r'\[\n\s*("[^"]*"),\n\s*("[^"]*")\n\s*\]', r"[\1, \2]", text)
    text = re.sub(r'\{\n\s*("rule": "[^"]*")\n\s*\}', r"{\1}", text)
    GOLDEN.write_text(text + "\n", encoding="utf-8")
