"""Independent reference for the generated workloads.

A plain state-vector simulation with hand-written gate matrices, and the
step count the generator predicts for each circuit.  Nothing here imports
the package under test.
"""

from __future__ import annotations

import numpy as np

TOL = 1e-9

_S = 2 ** -0.5
GATES = {
    "NOT": np.array([[0, 1], [1, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "Hd": np.array([[_S, _S], [_S, -_S]], dtype=complex),
}


def wire_state(bit: int, gates: list[str]) -> np.ndarray:
    """One wire started in |bit>, gates applied first to last."""
    v = np.zeros(2, dtype=complex)
    v[bit] = 1.0
    for g in gates:
        v = GATES[g] @ v
    return v


def product_state(wires: list[tuple[int, list[str]]]) -> np.ndarray:
    """Tensor product of the wires, the first wire most significant."""
    out = np.ones(1, dtype=complex)
    for bit, gates in wires:
        out = np.kron(out, wire_state(bit, gates))
    return out


def support(v: np.ndarray) -> int:
    return int(np.count_nonzero(np.abs(v) > TOL))


def predicted_steps(wires: list[tuple[int, list[str]]]) -> int:
    """Steps of call-by-value evaluation of a right-nested pair of gate
    chains.  Each gate is one beta step and one case step; wires reduce
    left to right, and every basis state left of a wire is its own
    reduction context, so a gate fires once per context.  A chain on one
    wire gives 2 per gate; an Hd layer on n wires gives 2^(n+1) - 2."""
    total, contexts = 0, 1
    for bit, gates in wires:
        total += 2 * len(gates) * contexts
        contexts *= support(wire_state(bit, gates))
    return total


def check_state(got: np.ndarray, expected: np.ndarray) -> bool:
    return got.shape == expected.shape and bool(
        np.max(np.abs(got - expected)) <= TOL
    )


def check_steps(got: int, expected: int) -> bool:
    return got == expected
