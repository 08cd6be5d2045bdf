"""Grouping sums of pairs by the alpha-class of one side.

`core.alpha_classes` tries only the classes of a term's shape bucket.
The references below are the earlier code: a linear scan over every
class, the rank-one factoring built on it, and product membership with
a residual grown entry by entry.  The index must give the same
representatives and classes, the factoring the same factors bit for
bit, and membership the same verdicts.
"""

import struct

import numpy as np
import pytest

from basislam import checker, typesem
from basislam.basis import HAD, NAMED_BASES, STD
from basislam.core import (
    Ket,
    Lam,
    Pair,
    Var,
    add,
    alpha_classes,
    dist_eq,
    get_settings,
    inner_product,
    is_value_dist,
    local_settings,
    mk_pair,
    scale,
    sc_is_zero,
    shape_key,
    single,
    term_eq,
    zero,
)
from basislam.corpus import corpus_program, run_corpus
from basislam.syntax import parse_type
from basislam.typesem import (
    Prod,
    Undecidable,
    _member,
    _rank1_member,
    factor_rank1,
    finite_members,
    is_member,
    is_member_phase,
)
from gen import random_combination, random_ortho

K0, K1 = single(Ket(0)), single(Ket(1))
GATES = corpus_program("gates").defs


# ---------------------------------------------------------------------------
# References.


def ref_class_index(classes, t):
    for i, u in enumerate(classes):
        if term_eq(u, t):
            return i
    classes.append(t)
    return len(classes) - 1


def ref_factor_rank1(entries):
    lefts = []
    rights = []
    cells = [
        (ref_class_index(lefts, lt), ref_class_index(rights, rt), c)
        for lt, rt, c in entries
    ]
    m = np.zeros((len(lefts), len(rights)), dtype=complex)
    for i, j, c in cells:
        m[i, j] += c
    u, s, vh = np.linalg.svd(m)
    if len(s) > 1 and not sc_is_zero(s[1]):
        return None
    left = add(*(scale(u[i, 0], single(lt)) for i, lt in enumerate(lefts)))
    right = add(
        *(scale(s[0] * vh[0, j], single(rt)) for j, rt in enumerate(rights))
    )
    return left, right


def ref_member(v, t, phase):
    if isinstance(t, Prod) and is_value_dist(v) and not v.is_zero():
        return ref_prod_member(v, t, phase)
    return _member(v, t, phase)


def ref_prod_member(v, t, phase):
    if not all(isinstance(u, Pair) for u, _ in v.entries):
        return False
    for side in ("left", "right"):
        this = t.left if side == "left" else t.right
        other = t.right if side == "left" else t.left
        members = finite_members(this)
        if members is None:
            continue
        for m in members:
            residual = zero()
            for u, c in v.entries:
                assert isinstance(u, Pair)
                mine = u.left if side == "left" else u.right
                overlap = inner_product(m, single(mine))
                if overlap != 0:
                    rest = u.right if side == "left" else u.left
                    residual = add(residual, scale(c * overlap, single(rest)))
            if residual.is_zero():
                continue
            rebuilt = (
                mk_pair(m, residual)
                if side == "left"
                else mk_pair(residual, m)
            )
            if dist_eq(rebuilt, v):
                return ref_member(residual, other, phase)
        return False
    return _rank1_member(v, t)


# ---------------------------------------------------------------------------
# Terms with many near classes.


def _lam(var, body):
    return Lam(var, STD, body)


def _near_lams(coeff):
    """Abstractions whose body coefficients are coeff nudged by multiples
    of 0.4 eps: neighbours are term_eq, those 1.2 eps apart are not, so
    which class a term joins depends on the order of the classes."""
    eps = get_settings().eps
    x = single(Var("x"))
    return [
        _lam("x", add(scale(coeff + k * 0.4 * eps, mk_pair(x, K0)), K1))
        for k in range(4)
    ]


def _pool():
    x, y = single(Var("x")), single(Var("y"))
    plus = add(scale(0.6, K0), scale(0.8, K1))
    minus = add(scale(0.8, K0), scale(0.6, K1))
    return [
        Ket(0),
        Ket(1),
        Var("a"),  # two variables share one shape key
        Var("b"),
        _lam("x", x),  # alpha variants
        _lam("y", y),
        _lam("x", plus),  # kets under lambdas, other coefficients
        _lam("y", minus),
        Pair(Ket(0), Var("a")),
        Pair(Ket(0), Var("b")),
        GATES["NOT"].entries[0][0],
        GATES["Hd"].entries[0][0],
        *_near_lams(0.5),
        *_near_lams(-0.25j),
    ]


def _sequences(seed, count):
    rng = np.random.default_rng(seed)
    pool = _pool()
    for _ in range(count):
        n = int(rng.integers(1, 24))
        picks = [pool[int(i)] for i in rng.integers(len(pool), size=n)]
        rng.shuffle(picks)
        yield rng, picks


def test_pool_shares_shape_keys_across_classes():
    # the buckets hold several classes, so the in-bucket order matters
    pool = _pool()
    reps, _ = alpha_classes(pool)
    assert len(reps) < len(pool)
    assert len({shape_key(t) for t in reps}) < len(reps)


@pytest.mark.parametrize("seed", range(4))
def test_index_matches_the_linear_scan(seed):
    for _, terms in _sequences(seed, 200):
        classes = []
        want = [ref_class_index(classes, t) for t in terms]
        reps, index = alpha_classes(terms)
        assert index == want
        assert len(reps) == len(classes)
        assert all(r is c for r, c in zip(reps, classes))


_dd = struct.Struct("dd").pack


def _bits(d):
    """The terms of d by identity and its coefficients as bytes."""
    return [(id(t), _dd(c.real, c.imag)) for t, c in d.entries]


@pytest.mark.parametrize("seed", range(4))
def test_factoring_matches_the_linear_scan(seed):
    outcomes = set()
    for rng, lefts in _sequences(100 + seed, 150):
        rights = list(lefts)
        rng.shuffle(rights)
        if rng.integers(2):  # rank one: an outer product of two vectors
            n = len(lefts)
            a, b = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
            entries = [
                (lt, rt, complex(a[i] * b[j]))
                for i, lt in enumerate(lefts)
                for j, rt in enumerate(rights)
            ]
        else:
            entries = [
                (lt, rt, complex(rng.normal(), rng.normal()))
                for lt, rt in zip(lefts, rights)
            ]
        want = ref_factor_rank1(entries)
        got = factor_rank1(entries)
        outcomes.add(want is None)
        if want is None:
            assert got is None
            continue
        assert _bits(got[0]) == _bits(want[0])
        assert _bits(got[1]) == _bits(want[1])
    assert outcomes == {True, False}


def test_factoring_matches_the_svd_on_every_corpus_input(monkeypatch):
    # a one-summand sum with coefficient 1 is factored without numpy; on
    # every input a corpus run factors, the factors are the SVD's
    inputs = []

    def recording(entries):
        inputs.append((list(entries), get_settings()))
        return factor_rank1(entries)

    for module in (checker, typesem):
        monkeypatch.setattr(module, "factor_rank1", recording)
    assert all(r.ok for r in run_corpus())
    monkeypatch.undo()
    units = sum(len(e) == 1 and e[0][2] == 1 for e, _ in inputs)
    assert 0 < units < len(inputs)
    for entries, settings in inputs:
        with local_settings(settings):
            want, got = ref_factor_rank1(entries), factor_rank1(entries)
            assert (got is None) == (want is None)
            if want is not None:
                assert _bits(got[0]) == _bits(want[0])
                assert _bits(got[1]) == _bits(want[1])


@pytest.mark.parametrize("eps", [1e-9, 2.0])  # 2.0 prunes the unit too
@pytest.mark.parametrize("c", [1 + 0j, complex(1, -0.0), 1.0])
def test_unit_summand_factors_as_the_svd(eps, c):
    entries = [(Ket(0), Pair(Ket(1), Ket(0)), c)]
    with local_settings(eps=eps):
        want, got = ref_factor_rank1(entries), factor_rank1(entries)
    assert _bits(got[0]) == _bits(want[0])
    assert _bits(got[1]) == _bits(want[1])
    assert len(got[0]) == (eps < 1)


# ---------------------------------------------------------------------------
# Product membership: verdicts against the reference.


def _outcome(f):
    try:
        return f()
    except Undecidable:
        return "undecidable"


def _phase(rng):
    return complex(np.exp(1j * rng.uniform(0, 2 * np.pi)))


def _joint(rng, lefts, rights):
    """A random unit combination of every pair, entangled in general."""
    c = rng.normal(size=(len(lefts), len(rights))) + 1j * rng.normal(
        size=(len(lefts), len(rights))
    )
    c = c / np.linalg.norm(c)
    return add(
        *(
            scale(complex(c[i, j]), mk_pair(lt, rt))
            for i, lt in enumerate(lefts)
            for j, rt in enumerate(rights)
        )
    )


def _values(rng, left, right):
    """Values over the elements of two bases: products of members and of
    combinations, each with a global phase on either factor, products
    with a residual of zero for some member, entangled values, and sums
    that are not pairs at all."""
    out = []
    for _ in range(3):
        for lt in list(left) + [random_combination(rng, left)]:
            for rt in list(right) + [random_combination(rng, right)]:
                out.append(mk_pair(scale(_phase(rng), lt), rt))
                out.append(mk_pair(lt, scale(_phase(rng), rt)))
        out.append(_joint(rng, left, right))
        out.append(
            add(mk_pair(left[0], right[0]), mk_pair(left[-1], right[-1]))
        )
    out.append(add(scale(0.6, K0), scale(0.8, mk_pair(K0, K1))))
    return out


D = random_ortho(np.random.default_rng(7), 2)  # four summands an element
CASES = [
    ("[B] * #[B]", STD.elements, STD.elements),
    ("#[X] * [X]", HAD.elements, HAD.elements),
    ("[B] * [B]", STD.elements, STD.elements),
    ("[B] * [X]", STD.elements, HAD.elements),
    ("#[B] * #[X]", STD.elements, HAD.elements),
    ("[D] * #[B]", D.elements, STD.elements),
    ("#[X] * [D]", HAD.elements, D.elements),
    ("[D] * [D]", D.elements, D.elements),
]


@pytest.mark.parametrize("text, left, right", CASES)
def test_product_membership_matches_the_reference(text, left, right):
    t = parse_type(text, {**NAMED_BASES, "D": D})
    assert isinstance(t, Prod)
    rng = np.random.default_rng(len(text))
    verdicts = set()
    for v in _values(rng, left, right):
        for phase, decide in ((False, is_member), (True, is_member_phase)):
            want = _outcome(lambda: ref_member(v, t, phase))
            assert _outcome(lambda: decide(v, t)) == want
            verdicts.add(want)
    assert verdicts == {True, False}


def test_product_membership_undecidable_like_the_reference():
    rng = np.random.default_rng(9)
    funs = [GATES["NOT"], GATES["Hd"]]
    mixed = add(scale(0.6, GATES["NOT"]), scale(0.8, GATES["Hd"]))
    verdicts = set()
    for text in ("[B] * #([B] -> [B])", "#[B] * #([B] -> [B])"):
        t = parse_type(text)
        values = [mk_pair(k, f) for k in (K0, K1) for f in funs + [mixed]]
        values += [
            mk_pair(random_combination(rng, STD.elements), f)
            for f in funs + [mixed]
        ]
        values.append(_joint(rng, STD.elements, funs))
        for v in values:
            for phase, decide in ((False, is_member), (True, is_member_phase)):
                want = _outcome(lambda: ref_member(v, t, phase))
                assert _outcome(lambda: decide(v, t)) == want
                verdicts.add(want)
    assert "undecidable" in verdicts and True in verdicts


def test_declared_basis_elements_have_many_summands():
    assert all(len(e.entries) >= 3 for e in D.elements)
