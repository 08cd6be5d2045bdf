"""Random generators shared by the property suites.

Terms come out typed by construction: ``closed_term`` returns a pair of a
distribution and the type it inhabits, built from the gate library over a
seeded generator so the suites are reproducible.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from basislam.basis import KET_MINUS, KET_PLUS, STD, from_vector
from basislam.core import (
    Ket,
    Ortho,
    TermDist,
    Var,
    add,
    mk_app,
    mk_case,
    mk_letpair,
    mk_pair,
    scale,
    single,
)
from basislam.corpus import corpus_program
from basislam.syntax import parse_type
from basislam.typesem import Type

_GATES = corpus_program("gates").defs

TYPES: dict[str, Type] = {
    "B": parse_type("[B]"),
    "X": parse_type("[X]"),
    "#B": parse_type("#[B]"),
    "BxB": parse_type("[B] * [B]"),
    "#(BxB)": parse_type("#([B] * [B])"),
}


def random_state(rng: np.random.Generator, n: int = 1) -> TermDist:
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    v = v / np.linalg.norm(v)
    return from_vector(v, n)


def random_combination(
    rng: np.random.Generator, elements: Sequence[TermDist]
) -> TermDist:
    """A random unit combination of orthonormal elements, over their
    span."""
    c = rng.normal(size=len(elements)) + 1j * rng.normal(size=len(elements))
    c = c / np.linalg.norm(c)
    return add(*(scale(complex(a), e) for a, e in zip(c, elements)))


def random_ortho(rng: np.random.Generator, n: int = 1) -> Ortho:
    dim = 2**n
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(m)
    return Ortho(tuple(from_vector(q[:, k], n) for k in range(dim)))


def _b_atom(rng) -> TermDist:
    return single(Ket(int(rng.integers(2))))


def _x_atom(rng) -> TermDist:
    return KET_PLUS if rng.integers(2) == 0 else KET_MINUS


def _sb_atom(rng) -> TermDist:
    return random_state(rng, 1)


def _term(rng, kind: str, depth: int) -> TermDist:
    if depth <= 0:
        if kind == "B":
            return _b_atom(rng)
        if kind == "X":
            return _x_atom(rng)
        if kind == "#B":
            return _sb_atom(rng)
        if kind == "BxB":
            return mk_pair(_b_atom(rng), _b_atom(rng))
        return mk_pair(_sb_atom(rng), _sb_atom(rng))

    roll = rng.integers(4)
    if kind == "B":
        if roll == 0:
            return mk_app(_GATES["NOT"], _term(rng, "B", depth - 1))
        if roll == 1:
            return mk_app(_GATES["Z"], _term(rng, "B", depth - 1))
        if roll == 2:
            return mk_case(
                _term(rng, "X", depth - 1),
                (KET_PLUS, KET_MINUS),
                (single(Ket(0)), single(Ket(1))),
            )
        return mk_letpair(
            "u",
            STD,
            "w",
            STD,
            mk_pair(_term(rng, "B", depth - 1), _b_atom(rng)),
            mk_case(
                single(Var("w")),
                (single(Ket(0)), single(Ket(1))),
                (single(Var("u")), mk_app(_GATES["NOT"], single(Var("u")))),
            ),
        )
    if kind == "X":
        if roll == 0:
            return mk_app(_GATES["Hd"], _term(rng, "B", depth - 1))
        if roll == 1:
            return mk_app(_GATES["ZX"], _term(rng, "X", depth - 1))
        if roll == 2:
            return mk_app(_GATES["XX"], _term(rng, "X", depth - 1))
        return _x_atom(rng)
    if kind == "#B":
        if roll == 0:
            return mk_app(_GATES["NOT"], _term(rng, "#B", depth - 1))
        if roll == 1:
            theta = float(rng.uniform(0, 2 * np.pi))
            return scale(
                complex(np.cos(theta), np.sin(theta)),
                _term(rng, "#B", depth - 1),
            )
        if roll == 2:
            v = _term(rng, "#B", depth - 1)
            return mk_case(
                mk_app(_GATES["Hd"], v),
                (KET_PLUS, KET_MINUS),
                (single(Ket(0)), single(Ket(1))),
            )
        return _sb_atom(rng)
    if kind == "BxB":
        if roll in (0, 1):
            return mk_pair(
                _term(rng, "B", depth - 1), _term(rng, "B", depth - 1)
            )
        return mk_app(
            mk_app(_GATES["CNOT"], _term(rng, "B", depth - 1)),
            _term(rng, "B", depth - 1),
        )
    # "#(BxB)"
    if roll in (0, 1):
        return mk_app(
            mk_app(_GATES["CNOT"], _term(rng, "#B", depth - 1)),
            _term(rng, "B", depth - 1),
        )
    return mk_pair(_term(rng, "#B", depth - 1), _term(rng, "#B", depth - 1))


def closed_term(
    rng: np.random.Generator, max_depth: int = 3
) -> tuple[TermDist, Type, str]:
    kind = ["B", "X", "#B", "BxB", "#(BxB)"][int(rng.integers(5))]
    depth = int(rng.integers(1, max_depth + 1))
    return _term(rng, kind, depth), TYPES[kind], kind


def shuffled(rng: np.random.Generator, d: TermDist) -> TermDist:
    """The same distribution reassembled from its entries in a random
    order."""
    order = list(rng.permutation(len(d.entries)))
    return add(*(scale(d.entries[k][1], single(d.entries[k][0])) for k in order))
