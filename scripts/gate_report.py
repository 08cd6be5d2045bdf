#!/usr/bin/env python3
"""Unitarity survey over the bundled gate corpus.

Every definition is analysed with the gram-matrix check; curried
two-argument gates are first wrapped as a single abstraction over the
product of their annotation bases.  For square maps the verdict is
compared against semantic membership in the sharp arrow over the same
span — the two must agree wherever membership is decided.
"""

from __future__ import annotations

import argparse
import sys

from basislam import (
    Settings,
    TermDist,
    Undecidable,
    check_unitary,
    is_member,
    local_settings,
    uncurried,
)
from basislam.typesem import Arrow, BasisType, Sharp
from basislam.corpus import corpus_program


def survey(name: str, term: TermDist) -> bool:
    term, over = uncurried(term)
    note = "" if over is None else f" (uncurried over {over})"
    report = check_unitary(term)
    rows, cols = report.matrix.shape
    member = None
    if report.square:
        span = Sharp(BasisType(report.basis))
        try:
            member = is_member(term, Arrow(span, span))
        except Undecidable:
            member = None
    member_txt = {True: "yes", False: "no", None: "undecided"}[member]
    agree = "-"
    if member is not None:
        agree = "ok" if (report.label == "unitary") == member else "DISAGREE"
    print(
        f"  {name:<7} {rows}x{cols}  {report.label:<12}"
        f" deviation={report.deviation:.2e}  member={member_txt:<9}"
        f" agreement={agree}{note}"
    )
    return agree != "DISAGREE"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-steps", type=int, default=Settings.max_steps)
    args = ap.parse_args()
    try:
        settings = Settings(max_steps=args.max_steps)
    except ValueError as e:
        ap.error(str(e))
    with local_settings(settings):
        return run()


def run() -> int:
    prog = corpus_program("gates")
    print("gate survey:")
    ok = True
    for name, term in prog.defs.items():
        ok = survey(name, term) and ok
    print("result:", "verdicts and membership agree" if ok else "DISAGREEMENTS above")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
