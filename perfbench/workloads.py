"""Seeded inputs for the benchmark workloads.

Every workload is a closed loop with one caller: the next item starts
when the previous one has returned.  The same seed always gives the same
items.  Sizes and the places of the Hd gates are fixed per workload; the
seed picks the other gates (NOT or Z) and the input kets.  A wire is in
superposition exactly when it has passed an odd number of Hd, so the
number of summands at every step, and with it the cost of a pass, is the
same on every seed.

corpus  run_corpus() over the 80 bundled rows: checker and harness heavy,
        the same small inputs evaluated ~26 times each.  Has no seeded
        inputs; the seed is accepted and ignored.
wide    library evaluate on n-qubit product circuits.  Every wire gets one
        Hd, so the normal form has 2^n summands and the pairwise merge in
        canonical construction dominates.  No parser, no checker.
deep    cli.main(["eval", ...]) in-process on one-wire gate chains of depth
        d: one or two summands, hundreds of steps, deep nesting.  The only
        workload where the parser and the command line do real work.
"""

from __future__ import annotations

import json
import os
import random

NAMES = ("corpus", "wide", "deep")

# (wires, gates per wire, items): one Hd per wire, at place w % length on
# wire w, the other gates NOT or Z.
WIDE_SCHEDULE = ((4, 3, 12), (5, 2, 12), (6, 1, 6), (7, 1, 1))

# (depth, items): Hd at every DEEP_HD_EVERY-th place from the first, the
# other gates NOT or Z.
DEEP_SCHEDULE = ((12, 8), (16, 8), (20, 8), (24, 8), (28, 8))
DEEP_HD_EVERY = 4

CORPUS_ROWS = os.path.join(os.path.dirname(__file__), "corpus_rows.json")

Wire = tuple[int, list[str]]  # input ket bit, gates applied first to last


def wide_items(seed: int) -> list[list[Wire]]:
    rng = random.Random(f"wide:{seed}")
    items = []
    for n, length, count in WIDE_SCHEDULE:
        for _ in range(count):
            wires = []
            for w in range(n):
                gates = [rng.choice(("NOT", "Z")) for _ in range(length - 1)]
                gates.insert(w % length, "Hd")
                wires.append((rng.randrange(2), gates))
            items.append(wires)
    return items


def deep_items(seed: int) -> list[Wire]:
    rng = random.Random(f"deep:{seed}")
    return [
        (
            rng.randrange(2),
            [
                "Hd" if i % DEEP_HD_EVERY == 0 else rng.choice(("NOT", "Z"))
                for i in range(d)
            ],
        )
        for d, count in DEEP_SCHEDULE
        for _ in range(count)
    ]


def corpus_items(seed: int) -> list[tuple[str, str]]:
    """The (section, name) of each corpus row, in table order."""
    with open(CORPUS_ROWS, encoding="utf-8") as fh:
        return [tuple(r) for r in json.load(fh)]


def items(workload: str, seed: int) -> list:
    return {"corpus": corpus_items, "wide": wide_items, "deep": deep_items}[
        workload
    ](seed)


def chain_text(wire: Wire) -> str:
    """Source text of one gate chain, e.g. `Hd (Z (|0>))`."""
    bit, gates = wire
    text = f"|{bit}>"
    for g in gates:
        text = f"{g} ({text})"
    return text
