"""The node layer: frozen fields, the pure-value flag fixed at
construction, copies and pickles, and cached keys, of nodes and of
basis annotations, that agree with fresh ones."""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

import gen
from basislam.basis import STD, product_basis
from basislam.core import (
    App,
    Case,
    Ket,
    Lam,
    LetPair,
    Ortho,
    Pair,
    TermDist,
    Var,
    _basis_key,
    _basis_names,
    _dist_key,
    _term_key,
    free_vars,
    is_pure_value,
    shape_key,
    single,
    term_eq,
)
from basislam.corpus import corpus_program
from basislam.reduction import evaluate

NODES = (Var, Ket, Lam, Pair, App, LetPair, Case)


def ref_value(t):
    """The pure-value test as a recursive definition."""
    if isinstance(t, (Var, Ket, Lam)):
        return True
    if isinstance(t, Pair):
        return ref_value(t.left) and ref_value(t.right)
    return False


def subterms(x):
    """Every pure term inside x: a term, a distribution, a basis or a
    tuple of them, lambda and let bodies, patterns and branches and the
    elements of annotations included."""
    if isinstance(x, tuple):
        for y in x:
            yield from subterms(y)
    elif isinstance(x, TermDist):
        for t, _ in x.entries:
            yield from subterms(t)
    elif isinstance(x, Ortho):
        yield from subterms(x.elements)
    elif isinstance(x, NODES):
        yield x
        for f in dataclasses.fields(x):
            yield from subterms(getattr(x, f.name))


def fresh(x):
    """A copy of x rebuilt through the constructors, sharing no node and
    holding no cache."""
    if isinstance(x, tuple):
        return tuple(fresh(y) for y in x)
    if isinstance(x, (TermDist, Ortho) + NODES):
        fields = dataclasses.fields(x)
        return type(x)(**{f.name: fresh(getattr(x, f.name)) for f in fields})
    return x


def _terms():
    """Generated terms, the gate library, and every term their
    evaluations pass through: the redexes found are cached on them."""
    rng = np.random.default_rng(21)
    dists = [gen.closed_term(rng)[0] for _ in range(30)]
    dists += list(corpus_program("gates").defs.values())
    for d in dists[:10]:
        dists += [step for step, _ in evaluate(d).steps]
    return dists


DISTS = _terms()
TERMS = [t for d in DISTS for t in subterms(d)]
# pairs of pairs, with a non-value at each depth
K0, K1, X = Ket(0), Ket(1), Var("x")
REDEX = App(Lam("y", STD, single(Var("y"))), K1)
TERMS += [
    Pair(Pair(K0, X), Pair(K1, K0)),
    Pair(Pair(K0, REDEX), K1),
    Pair(K0, Pair(K1, Pair(REDEX, K0))),
    Pair(REDEX, Pair(K0, K1)),
]
BY_KIND = {cls: next(t for t in TERMS if type(t) is cls) for cls in NODES}


def test_every_kind_is_sampled():
    assert all(any(type(t) is cls for t in TERMS) for cls in NODES)
    assert any(isinstance(t.left, Pair) for t in TERMS if isinstance(t, Pair))


@pytest.mark.parametrize("cls", NODES + (TermDist,), ids=lambda c: c.__name__)
def test_fields_are_frozen(cls):
    node = BY_KIND[cls] if cls is not TermDist else DISTS[0]
    for f in dataclasses.fields(node):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, f.name, getattr(node, f.name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(node, f.name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        node._value = True


def test_ket_bit_is_an_int():
    assert Ket(True).bit == 1 and type(Ket(True).bit) is int
    assert type(Ket(np.int64(0)).bit) is int
    for bad in (2, -1):
        with pytest.raises(ValueError):
            Ket(bad)


def test_value_flag_matches_the_recursive_definition():
    assert sum(ref_value(t) for t in TERMS) and sum(
        not ref_value(t) for t in TERMS
    )
    for t in TERMS:
        assert t._value is ref_value(t), t
        assert is_pure_value(t) is ref_value(t)


def test_replace_sets_the_flag_afresh():
    pair = Pair(K0, K1)
    _term_key(pair)
    stuck = dataclasses.replace(pair, right=REDEX)
    assert stuck._value is False and "_key" not in stuck.__dict__
    assert repr(stuck) == f"Pair(left={K0!r}, right={REDEX!r})"


@pytest.mark.parametrize(
    "clone",
    [
        copy.copy,
        copy.deepcopy,
        lambda t: pickle.loads(pickle.dumps(t)),
    ],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_keep_the_term_and_the_flag(clone):
    # the redex found is cached on the summands of an evaluation
    found = [t for t in TERMS if "_found" in t.__dict__][:5]
    assert found
    for t in list(BY_KIND.values()) + TERMS[-4:] + found:
        c = clone(t)
        assert type(c) is type(t)
        assert term_eq(c, t)
        assert c._value is ref_value(c)


def test_cached_keys_match_fresh_ones():
    for d in DISTS:
        d_key, d_fv = _dist_key(d), free_vars(d)
        assert d.__dict__["_key"] is d_key and d.__dict__["_fv"] is d_fv
        assert "_shape" not in d.__dict__  # only pure terms have shapes
        other = fresh(d)
        assert "_key" not in other.__dict__
        assert _dist_key(other) == d_key
        assert free_vars(other) == d_fv
    for t in TERMS:
        key, shape = _term_key(t), shape_key(t)
        assert t.__dict__["_key"] is key and t._shape == shape
        other = fresh(t)
        assert not {"_key", "_found"} & other.__dict__.keys()
        assert (_term_key(other), shape_key(other)) == (key, shape)
        assert free_vars(other) == free_vars(t)


def test_shape_of_a_deep_chain_is_read_without_recursion():
    # each node takes its shape from its children's when it is built
    chains = []
    for _ in range(2):
        t = K0
        for _ in range(5000):
            t = Pair(K1, t)
        chains.append(t)
    assert shape_key(chains[0]) == shape_key(chains[1])
    assert shape_key(chains[0]) != shape_key(chains[0].right)


def test_cached_basis_facts_match_fresh_ones():
    annotations = {}  # by identity
    for t in TERMS:
        if isinstance(t, Lam):
            annotations[id(t.basis)] = t.basis
        elif isinstance(t, LetPair):
            annotations[id(t.basis1)] = t.basis1
            annotations[id(t.basis2)] = t.basis2
    bases = [b for b in annotations.values() if isinstance(b, Ortho)]
    assert len(bases) >= 2
    bases += [product_basis(bases[0], bases[-1]), Ortho((single(K0),))]
    for b in bases:
        facts = _basis_key(b), _basis_names(b)
        stored = tuple(b.__dict__[k] for k in ("_key", "_names"))
        assert stored == facts and stored[0] is facts[0]
        assert "_shape" not in b.__dict__  # a basis has no shape
        other = fresh(b)
        assert not {"_key", "_names"} & other.__dict__.keys()
        assert (_basis_key(other), _basis_names(other)) == facts
