#!/usr/bin/env python3
"""Teleport random one-qubit states through the bundled corpus protocol.

Each input state is applied to the teleport abstraction and reduced to
normal form.  The result is compared against the analytic coherent
mixture built directly in the calculus: the equal-weight sum over the
four Bell outcomes, each paired with the (corrected) input state.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from basislam import (
    BELL,
    NormalForm,
    Settings,
    add,
    check,
    dist_eq,
    from_vector,
    local_settings,
    mk_app,
    mk_pair,
    norm,
    parse_type,
    run,
    scale,
    sub,
    zero,
)
from basislam.corpus import corpus_program


def random_state(rng: np.random.Generator):
    vec = rng.normal(size=2) + 1j * rng.normal(size=2)
    vec = vec / np.linalg.norm(vec)
    return from_vector(vec, 1)


def analytic_mixture(psi):
    """Equal-weight pairing of every Bell outcome with the input state."""
    out = zero()
    for bell in BELL.elements:
        out = add(out, scale(0.5, mk_pair(bell, psi)))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-states", type=int, default=20)
    ap.add_argument("--seed", type=int, default=2026)
    ap.add_argument("--max-steps", type=int, default=Settings.max_steps)
    args = ap.parse_args()
    try:
        settings = Settings(max_steps=args.max_steps)
    except ValueError as e:
        ap.error(str(e))
    with local_settings(settings):
        return teleport_states(args.n_states, args.seed)


def teleport_states(n_states: int, seed: int) -> int:
    prog = corpus_program("teleport")
    teleport = prog.defs["Teleport"]
    rng = np.random.default_rng(seed)

    worst = 0.0
    failures = 0
    for k in range(n_states):
        psi = random_state(rng)
        final, fuel_used = run(mk_app(teleport, psi))
        if not isinstance(final, NormalForm):
            print(f"state {k:2d}: STUCK ({final.reason})")
            failures += 1
            continue
        expected = analytic_mixture(psi)
        residual = norm(sub(final.dist, expected))
        agree = dist_eq(final.dist, expected)
        worst = max(worst, residual)
        if not agree:
            failures += 1
        print(
            f"state {k:2d}: steps={fuel_used:<3}"
            f" residual={residual:.2e}  {'ok' if agree else 'MISMATCH'}"
        )

    goal = parse_type("#[B] -> #[Bell] * #[B]")
    check({}, teleport, goal)
    print(f"\nworst residual over {n_states} states: {worst:.2e}")
    print("protocol well-typed at #[B] -> #[Bell] * #[B]")
    print("result:", "all states teleported exactly" if not failures else f"{failures} FAILURES")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
