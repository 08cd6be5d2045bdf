#!/usr/bin/env python3
"""Run the two-point oracle discriminators from the bundled corpus.

For each oracle the discriminator is applied and reduced to normal form;
the answer bit is read off the final one-qubit state (diagonal-basis
encoding) or the first wire of the final two-qubit state (standard-basis
encoding).  Unless --no-check is given, the stated goal types are also
re-derived and the derivations are scanned for sharp-typed bindings.
"""

from __future__ import annotations

import argparse
import sys
import numpy as np

from basislam import (
    CheckError,
    NormalForm,
    Settings,
    check,
    local_settings,
    mk_app,
    print_term,
    run,
    to_vector,
    uses_sharp_binding,
)
from basislam.corpus import corpus_program

ORACLE_TABLE = {
    # oracle suffix -> (f(0), f(1))
    "const0": (0, 0),
    "const1": (1, 1),
    "id": (0, 1),
    "flip": (1, 0),
}


def answer_bit(trace_final_dist, wires: int) -> int:
    """Majority wire-0 amplitude, insensitive to global phase."""
    vec = to_vector(trace_final_dist, wires)
    probs = np.abs(vec) ** 2
    if wires == 1:
        return int(np.argmax(probs))
    # first wire is the slow index
    half = len(probs) // 2
    return int(probs[half:].sum() > probs[:half].sum())


def run_family(prog, disc_name: str, prefix: str, wires: int) -> bool:
    disc = prog.defs[disc_name]
    ok = True
    print(f"{disc_name}:")
    for suffix, (f0, f1) in ORACLE_TABLE.items():
        oracle = prog.defs[f"{prefix}{suffix}"]
        final, fuel_used = run(mk_app(disc, oracle))
        if not isinstance(final, NormalForm):
            print(f"  {prefix}{suffix:<7} STUCK: {final.reason}")
            ok = False
            continue
        bit = answer_bit(final.dist, wires)
        expected = f0 ^ f1
        verdict = "balanced" if bit else "constant"
        mark = "ok" if bit == expected else "MISMATCH"
        print(
            f"  {prefix}{suffix:<8} f=({f0},{f1})  steps={fuel_used:<3}"
            f" answer={bit} ({verdict:<8}) [{mark}]"
            f"  final: {print_term(final.dist)}"
        )
        ok = ok and bit == expected
    return ok


def check_goals(prog) -> bool:
    ok = True
    for goal in prog.goals:
        if goal.name not in ("Deutsch", "DeutschStd"):
            continue
        try:
            report = check({}, prog.defs[goal.name], goal.type)
        except CheckError as e:
            print(f"  {goal.name:<11} REJECTED: {e}")
            ok = False
            continue
        sharp = uses_sharp_binding(report)
        print(
            f"  {goal.name:<11} well-typed  sharp bindings:"
            f" {'yes' if sharp else 'no'}"
        )
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-steps", type=int, default=Settings.max_steps)
    ap.add_argument("--no-check", action="store_true", help="skip typing")
    args = ap.parse_args()
    try:
        settings = Settings(max_steps=args.max_steps)
    except ValueError as e:
        ap.error(str(e))
    with local_settings(settings):
        return discriminate(check_types=not args.no_check)


def discriminate(check_types: bool) -> int:
    prog = corpus_program("deutsch")
    ok = run_family(prog, "Deutsch", "OX_", wires=1)
    ok = run_family(prog, "DeutschStd", "OB_", wires=2) and ok
    if check_types:
        print("goal typing:")
        ok = check_goals(prog) and ok
    print("result:", "all oracles distinguished" if ok else "FAILURES above")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
