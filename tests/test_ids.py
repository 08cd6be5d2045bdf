"""Per-session node ids: the keys of the evaluation, membership and
judgement tables.  Inside one session two nodes have equal ids exactly
when their order keys are equal, and an id belongs to its session: a
node read in a later session is interned again there, and no node
keeps a session alive."""

import gc
import weakref

import numpy as np

import gen
from basislam.basis import STD
from basislam.core import (
    ABS,
    Case,
    Ket,
    Lam,
    LetPair,
    Ortho,
    Pair,
    TermDist,
    Var,
    _basis_id,
    _basis_key,
    _dist_id,
    _dist_key,
    _term_id,
    _term_key,
    session,
    single,
)
from basislam.reduction import evaluate_value
from basislam.syntax import parse_term
from test_nodes import DISTS, TERMS, fresh

K0, K1 = Ket(0), Ket(1)


def _pool():
    """Distributions, pure terms and annotations: the node pool of
    test_nodes, more generated terms, each shuffled, and fresh and
    unnamed copies of all of them, so that equal keys occur on distinct
    objects."""
    rng = np.random.default_rng(31)
    dists = list(DISTS)
    for _ in range(30):
        d = gen.closed_term(rng)[0]
        dists += [d, gen.shuffled(rng, d)]
    dists += [fresh(d, unnamed) for d in dists for unnamed in (False, True)]
    terms = [t for d in dists for t, _ in d.entries] + list(TERMS)
    terms += [fresh(t) for t in TERMS[::7]]
    bases = {}  # by identity
    for t in terms:
        if isinstance(t, Lam):
            bases[id(t.basis)] = t.basis
        elif isinstance(t, LetPair):
            bases[id(t.basis1)] = t.basis1
            bases[id(t.basis2)] = t.basis2
    bases = list(bases.values())
    bases += [fresh(b, unnamed=True) for b in bases if isinstance(b, Ortho)]
    return dists, terms, bases + [ABS]


def assert_ids_match_keys(nodes, node_id, node_key):
    """node_id(a) == node_id(b) exactly when node_key(a) == node_key(b),
    over every pair of nodes: the map from keys to ids is one to one."""
    ids_of, keys_of = {}, {}
    for x in nodes:
        i, k = node_id(x), node_key(x)
        ids_of.setdefault(k, set()).add(i)
        keys_of.setdefault(i, set()).add(k)
    assert all(len(v) == 1 for v in ids_of.values())
    assert all(len(v) == 1 for v in keys_of.values())
    return len(ids_of)


def test_ids_are_equal_exactly_when_keys_are():
    dists, terms, bases = _pool()
    with session():
        # far fewer keys than nodes: equal keys on distinct objects
        assert assert_ids_match_keys(dists, _dist_id, _dist_key) < len(dists)
        assert assert_ids_match_keys(terms, _term_id, _term_key) < len(terms)
        assert assert_ids_match_keys(bases, _basis_id, _basis_key) > 2


def _lam(var, basis, body):
    return Lam(var, basis, single(body))


def _hand_cases():
    """(a, b, equal keys?) for the cases the signature must tell apart,
    or must not."""
    body = single(Pair(Var("x"), Var("y")))
    pats = (single(K0), single(K1))

    def let(var1, var2):
        return LetPair(var1, STD, var2, STD, Pair(K0, K1), body)

    def case(branch):
        return Case(Var("z"), pats, (single(K0), single(branch)))

    return [
        # coefficients 0.0 and -0.0 are equal, as in the order key
        (
            TermDist(((K0, complex(0.0, 1.0)),)),
            TermDist(((K0, complex(-0.0, 1.0)),)),
            True,
        ),
        (TermDist(((K0, 1 + 1j),)), TermDist(((K0, 1 - 1j),)), False),
        (Ortho(STD.elements, "B"), Ortho(STD.elements), False),
        (
            _lam("x", Ortho(STD.elements, "B"), Var("x")),
            _lam("x", Ortho(STD.elements), Var("x")),
            False,
        ),
        (_lam("x", STD, Var("x")), _lam("y", STD, Var("y")), False),
        (_lam("x", STD, Var("x")), _lam("x", STD, Var("x")), True),
        (case(K1), case(K0), False),
        (case(K1), case(K1), True),
        (let("x", "y"), let("y", "x"), False),
        (let("x", "y"), let("x", "y"), True),
        (_lam("x", ABS, Var("x")), _lam("x", STD, Var("x")), False),
    ]


def _id_and_key(x):
    if isinstance(x, TermDist):
        return _dist_id(x), _dist_key(x)
    if isinstance(x, Ortho):
        return _basis_id(x), _basis_key(x)
    return _term_id(x), _term_key(x)


def test_hand_cases():
    with session():
        for a, b, equal in _hand_cases():
            (ia, ka), (ib, kb) = _id_and_key(a), _id_and_key(b)
            assert (ka == kb) is equal, (a, b)
            assert (ia == ib) is equal, (a, b)


def test_a_node_read_in_a_later_session_is_interned_again():
    d = parse_term("(|0>, \\x:B. (x, |1>)) + (|1>, \\y:B. y)")
    with session():
        _dist_id(parse_term("(|1>, (|1>, |1>)) + (|0>, |0>)"))  # first ids
        first = _dist_id(d)
    with session() as later:
        copy = fresh(d)
        assert _dist_id(copy) == _dist_id(d) != first
        assert d.__dict__["_id"] == (later.serial, _dist_id(copy))


def test_a_closed_session_is_freed_and_its_nodes_live_on():
    d = parse_term("(\\x:B. x) |0> + (\\x:B. x) |1>")
    with session() as s:
        assert evaluate_value(d) is not None
        ref = weakref.ref(s)
        interned = [d] + [t for t, _ in d.entries]
    del s
    assert ref() is None  # freed without a collection: no cycle holds it
    gc.collect()
    assert ref() is None
    for node in interned:
        assert type(node.__dict__["_id"]) is tuple


def test_an_id_fact_holds_only_ints():
    dists, terms, bases = _pool()
    with session() as s:
        for d in dists:
            _dist_id(d)
        for t in terms:
            _term_id(t)
        for b in bases:
            _basis_id(b)
    facts = [x.__dict__["_id"] for x in dists + terms + bases if x is not ABS]
    assert facts  # every pool node but ABS was interned
    for fact in facts:
        assert type(fact) is tuple and [type(v) for v in fact] == [int, int]
        assert fact[0] == s.serial
    assert "_id" not in ABS.__dict__  # an AbsBasis has one signature
