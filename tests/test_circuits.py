"""Random product circuits from the gate corpus against the numpy oracle.

Each wire starts in a seeded ket and passes through a seeded chain of the
one-wire gates `Hd`, `NOT` and `Z` of `gates.lb`; the wires are then
paired.  The normal form's state vector must equal the Kronecker product
of the gate matrices applied to the input kets.
"""

import numpy as np
import pytest

import oracles
from basislam.basis import to_vector
from basislam.core import Ket, mk_app, mk_pair, single
from basislam.corpus import corpus_program
from basislam.reduction import NormalForm, evaluate

MATRICES = {"Hd": oracles.H, "NOT": oracles.X, "Z": oracles.Z}
KETS = (oracles.KET0, oracles.KET1)


@pytest.mark.parametrize("seed", range(12))
def test_product_circuit_matches_oracle(seed):
    gates = corpus_program("gates").defs
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    wires = []
    for _ in range(n):
        bit = int(rng.integers(2))
        chain = [str(g) for g in rng.choice(list(MATRICES), rng.integers(0, 5))]
        wires.append((bit, chain))

    chains, expected = [], []
    for bit, chain in wires:
        d, state = single(Ket(bit)), KETS[bit]
        for g in chain:
            d = mk_app(gates[g], d)
            state = MATRICES[g] @ state
        chains.append(d)
        expected.append(state)
    term = chains[-1]
    for d in reversed(chains[:-1]):
        term = mk_pair(d, term)

    trace = evaluate(term)
    assert isinstance(trace.final, NormalForm), wires
    got = to_vector(trace.final.dist, n)
    assert np.allclose(got, oracles.kron(*expected), rtol=0, atol=1e-9), wires
