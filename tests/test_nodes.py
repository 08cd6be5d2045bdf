"""The node layer: frozen fields, the pure-value flag fixed at
construction, copies and pickles, and cached keys, of nodes and of
basis annotations, that agree with fresh ones."""

import copy
import pickle

import numpy as np
import pytest

import gen
from basislam.basis import BELL, HAD, STD, multi_ket, product_basis
from basislam.core import (
    ABS,
    AbsBasis,
    App,
    Case,
    FrozenError,
    Ket,
    Lam,
    LetPair,
    Ortho,
    Pair,
    TermDist,
    Var,
    _basis_key,
    _dist_key,
    _term_key,
    free_vars,
    is_pure_value,
    mk_app,
    mk_case,
    mk_lam,
    mk_letpair,
    mk_pair,
    replace,
    shape_key,
    single,
    term_eq,
)
from basislam.corpus import corpus_program
from basislam.reduction import evaluate
from basislam.syntax import print_term

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
        for name in x._fields:
            yield from subterms(getattr(x, name))


def fresh(x, unnamed=False):
    """A copy of x rebuilt through the constructors, sharing no node and
    holding no cache; with unnamed, every `Ortho` in it loses its name."""
    if isinstance(x, tuple):
        return tuple(fresh(y, unnamed) for y in x)
    if isinstance(x, (TermDist, Ortho) + NODES):
        fields = {name: fresh(getattr(x, name), unnamed) for name in x._fields}
        if unnamed and isinstance(x, Ortho):
            fields["name"] = None
        return type(x)(**fields)
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


def test_walks_descend_into_annotations_and_bodies():
    inner = Ket(1)  # in an annotation's element, in a lambda's body
    body = single(Lam("y", Ortho((single(inner),), "B"), single(X)))
    t = Lam("x", STD, body)
    assert any(s is inner for s in subterms(t))
    copied = fresh(t).body.entries[0][0].basis
    assert copied.name == "B" and copied is not body.entries[0][0].basis
    assert copied.elements[0].entries[0][0] is not inner
    assert fresh(t, unnamed=True).body.entries[0][0].basis.name is None


@pytest.mark.parametrize("cls", NODES + (TermDist,), ids=lambda c: c.__name__)
def test_fields_are_frozen(cls):
    node = BY_KIND[cls] if cls is not TermDist else DISTS[0]
    assert node._fields
    for name in node._fields:
        with pytest.raises(FrozenError):
            setattr(node, name, getattr(node, name))
        with pytest.raises(FrozenError):
            delattr(node, name)
    with pytest.raises(FrozenError):
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
    stuck = replace(pair, right=REDEX)
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
    assert not any("_names" in x.__dict__ for x in DISTS + TERMS)


def test_equal_keys_print_alike():
    # the order key holds every basis name, so it is exact for printing
    unnamed = [fresh(d, unnamed=True) for d in DISTS]
    assert any(_dist_key(u) != _dist_key(d) for u, d in zip(unnamed, DISTS))
    printed = {}
    for d in DISTS + unnamed:
        assert printed.setdefault(_dist_key(d), print_term(d)) == print_term(d)


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


def annotations(terms) -> list:
    """The annotations of the lambdas and lets among terms, one per
    object."""
    found = {}  # by identity
    for t in terms:
        if isinstance(t, Lam):
            found[id(t.basis)] = t.basis
        elif isinstance(t, LetPair):
            found[id(t.basis1)] = t.basis1
            found[id(t.basis2)] = t.basis2
    return list(found.values())


def test_cached_basis_facts_match_fresh_ones():
    bases = [b for b in annotations(TERMS) if isinstance(b, Ortho)]
    assert len(bases) >= 2
    bases += [product_basis(bases[0], bases[-1]), Ortho((single(K0),))]
    for b in bases:
        key = _basis_key(b)
        assert b.__dict__["_key"] is key
        # a basis has no shape, and its name is in its key
        assert not {"_shape", "_names"} & b.__dict__.keys()
        other = fresh(b)
        assert "_key" not in other.__dict__
        assert _basis_key(other) == key


# ---------------------------------------------------------------------------
# The order key against the nested one it replaced, kept here as the
# reference: (rank, atoms, children's keys).  The flat key must order
# every pair of nodes as the nested one does.


def ref_basis_key(b):
    if isinstance(b, AbsBasis):
        return (0, ())
    return (1, tuple(ref_dist_key(e) for e in b.elements), b.name or "")


def ref_term_key(t):
    if isinstance(t, Ket):
        return (0, (t.bit,), ())
    if isinstance(t, Var):
        return (1, (t.name,), ())
    if isinstance(t, Pair):
        return (2, (), (ref_term_key(t.left), ref_term_key(t.right)))
    if isinstance(t, Lam):
        return (3, (t.var, ref_basis_key(t.basis)), (ref_dist_key(t.body),))
    if isinstance(t, App):
        return (4, (), (ref_term_key(t.fun), ref_term_key(t.arg)))
    if isinstance(t, LetPair):
        return (
            5,
            (t.var1, ref_basis_key(t.basis1), t.var2, ref_basis_key(t.basis2)),
            (ref_term_key(t.scrutinee), ref_dist_key(t.body)),
        )
    if isinstance(t, Case):
        return (
            6,
            (len(t.patterns),),
            (ref_term_key(t.scrutinee),)
            + tuple(ref_dist_key(p) for p in t.patterns)
            + tuple(ref_dist_key(b) for b in t.branches),
        )
    raise TypeError(f"not a pure term: {t!r}")


def ref_dist_key(d):
    return tuple((ref_term_key(t), (c.real, c.imag)) for t, c in d.entries)


def _order_pool():
    """Open terms, lambdas over named, unnamed and differing annotations,
    cases of 2 and 4 patterns over scrutinees that order against their
    pattern counts, lets, generated terms and every step of their
    evaluations, each with its subterms and a fresh copy."""
    gates = corpus_program("gates").defs
    x, y, k0, k1 = (single(t) for t in (Var("x"), Var("y"), K0, K1))
    plus = HAD.elements[0]
    unnamed = Ortho(STD.elements)
    bodies = (x, y, k0, plus, mk_pair(x, k1))
    dists = [mk_pair(x, k0), mk_pair(k0, x), mk_app(single(Var("f")), x)]
    dists += [
        mk_lam(v, b, body)
        for v in ("x", "y")
        for b in (STD, unnamed, HAD, ABS, product_basis(STD, HAD))
        for body in bodies
    ]
    quads = tuple(multi_ket(bits) for bits in ("00", "01", "10", "11"))
    for s in (k0, k1, x, mk_app(gates["NOT"], x), mk_pair(k0, k1)):
        dists += [
            mk_case(s, STD.elements, (k1, x)),
            mk_case(s, STD.elements, (k0, plus)),
            mk_case(s, HAD.elements, (k1, x)),
            mk_case(s, quads, (k0, k1, x, y)),
            mk_case(s, BELL.elements, (k1, k1, k0, x)),
        ]
        dists += [
            mk_letpair("a", b1, "b", b2, s, body)
            for b1, b2 in ((STD, STD), (STD, HAD), (ABS, unnamed))
            for body in (x, mk_pair(single(Var("b")), single(Var("a"))))
        ]
    rng = np.random.default_rng(35)
    for _ in range(12):
        d = gen.closed_term(rng)[0]
        dists += [d] + [step for step, _ in evaluate(d).steps]
    terms = {id(t): t for t in subterms(tuple(dists))}  # by identity
    terms = list(terms.values())
    terms += [fresh(t) for t in terms[::5]]
    return dists + [fresh(d) for d in dists[::5]], terms


def assert_same_order(nodes, key, ref_key):
    """key and ref_key order every pair of nodes alike, equal ones too."""
    keys = [(key(x), ref_key(x)) for x in nodes]
    for i, (k, r) in enumerate(keys):
        for k2, r2 in keys[i + 1 :]:
            assert (k > k2) - (k < k2) == (r > r2) - (r < r2), (r, r2)


def test_flat_key_orders_as_the_nested_key():
    dists, terms = _order_pool()
    bases = annotations(terms)
    cases = {len(t.patterns) for t in terms if isinstance(t, Case)}
    assert cases == {2, 4} and len(terms) > 500
    assert len(bases) > 5 and ABS in bases
    assert_same_order(terms, _term_key, ref_term_key)
    assert_same_order(dists, _dist_key, ref_dist_key)
    assert_same_order(bases, _basis_key, ref_basis_key)
