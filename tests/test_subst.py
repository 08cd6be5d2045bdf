"""Substitution: structural, basis-directed, tensor and sigma.

`subst_basis` and `subst_tensor` substitute a body's instance at each
element of an orthonormal annotation once and store it on the body, and
build each combination in one construction.  The reference below is the
earlier substitution, kept verbatim, which substituted every element on
every call and added the pieces one at a time.  It decomposes with its
own copy of the earlier `decompose`, so the package's decomposition and
expansion are checked against code they do not call.  The package must
give the same distributions, coefficient bits included, on the first
call (which computes the instances) and on later ones (which reuse
them).
"""

import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from basislam import subst
from basislam.basis import (
    HAD,
    KET_MINUS,
    KET_PLUS,
    STD,
    decompose,
    product_basis,
    support_arity,
)
from basislam.core import (
    ABS,
    AbsBasis,
    App,
    Case,
    Ket,
    Lam,
    LetPair,
    Ortho,
    Pair,
    TermDist,
    Var,
    _dist_key,
    add,
    dist_eq,
    free_vars,
    get_settings,
    inner_product,
    is_closed,
    is_value_dist,
    local_settings,
    mk_app,
    mk_case,
    mk_lam,
    mk_letpair,
    mk_pair,
    norm,
    scale,
    sc_is_zero,
    single,
    sub,
    term_eq,
    zero,
)
from basislam.corpus import load_corpus
from basislam.reduction import _HOLE_VAR, RuleTag, Stuck, _fire, _Redex
from basislam.subst import (
    SubstUndefined,
    apply_sigma,
    fresh_name,
    rename_away,
    subst_basis,
    subst_dist,
    subst_tensor,
)
from gen import random_combination, random_ortho, random_state

K0 = single(Ket(0))
K1 = single(Ket(1))
X = single(Var("x"))
Y = single(Var("y"))
W = single(Var("w"))


class TestStructural:
    def test_simple(self):
        assert dist_eq(subst_dist(mk_pair(X, K1), "x", K0), mk_pair(K0, K1))

    def test_shadowing(self):
        lam = mk_lam("x", STD, X)
        assert dist_eq(subst_dist(lam, "x", K0), lam)

    def test_capture_avoidance(self):
        # substituting y into \y. (x, y) must rename the binder
        lam = mk_lam("y", STD, mk_pair(X, Y))
        out = subst_dist(lam, "x", Y)
        t = out.entries[0][0]
        assert isinstance(t, Lam)
        assert t.var != "y"
        assert free_vars(out) == frozenset({"y"})
        expected = mk_lam("w", STD, mk_pair(Y, single(Var("w"))))
        assert dist_eq(out, expected)

    def test_let_capture_avoidance_names(self):
        # both binders are free in the value: each is renamed away from
        # the value, the body and the other binder, the first one first
        body = mk_pair(mk_pair(X, single(Var("x1"))), mk_pair(Y, W))
        let = mk_letpair("x", STD, "y", STD, single(Var("s")), body)
        out = subst_dist(let, "w", mk_pair(X, Y))
        t = out.entries[0][0]
        assert isinstance(t, LetPair)
        assert (t.var1, t.var2) == ("x2", "y1")
        x2, y1 = single(Var("x2")), single(Var("y1"))
        expected = mk_pair(
            mk_pair(x2, single(Var("x1"))), mk_pair(y1, mk_pair(X, Y))
        )
        assert dist_eq(t.body, expected)
        assert free_vars(out) == frozenset({"s", "x", "x1", "y"})

    def test_fresh_name_avoids(self):
        assert fresh_name("x", frozenset({"x", "x1"})) not in {"x", "x1"}

    @given(st.integers(0, 5000))
    def test_congruence_additivity(self, seed):
        rng = np.random.default_rng(seed)
        v = random_state(rng, 1)
        d1 = mk_pair(X, K0)
        d2 = mk_pair(X, K1)
        lhs = subst_dist(add(scale(0.6, d1), scale(0.8, d2)), "x", v)
        rhs = add(
            scale(0.6, subst_dist(d1, "x", v)),
            scale(0.8, subst_dist(d2, "x", v)),
        )
        assert dist_eq(lhs, rhs)


class TestBasisSubstitution:
    def test_decomposes_over_annotation(self):
        # x^B := |+> splits linearly into the two standard components,
        # so duplicating the variable entangles instead of cloning
        out = subst_basis(mk_pair(X, X), "x", KET_PLUS, STD)
        expect = add(
            scale(1 / np.sqrt(2), mk_pair(K0, K0)),
            scale(1 / np.sqrt(2), mk_pair(K1, K1)),
        )
        assert dist_eq(out, expect)

    def test_had_annotation_keeps_plus_whole(self):
        out = subst_basis(mk_pair(X, X), "x", KET_PLUS, HAD)
        assert dist_eq(out, mk_pair(KET_PLUS, KET_PLUS))

    @given(st.integers(0, 5000))
    def test_linear_on_the_span(self, seed):
        rng = np.random.default_rng(seed)
        v, w = random_state(rng, 1), random_state(rng, 1)
        a, b = 0.6, complex(0, 0.8)
        body = mk_pair(X, K0)
        lhs = subst_basis(body, "x", add(scale(a, v), scale(b, w)), STD)
        rhs = add(
            scale(a, subst_basis(body, "x", v, STD)),
            scale(b, subst_basis(body, "x", w, STD)),
        )
        assert dist_eq(lhs, rhs)

    def test_outside_span_undefined(self):
        one_elem = Ortho((single(Ket(0)),))
        with pytest.raises(SubstUndefined) as exc:
            subst_basis(X, "x", K1, one_elem)
        assert "argument not in annotation span" in str(exc.value)

    def test_abs_is_value_wise(self):
        # an @fun binder accepts whole values without decomposition
        lam_value = mk_lam("z", STD, single(Var("z")))
        out = subst_basis(mk_pair(X, K0), "x", lam_value, ABS)
        assert dist_eq(out, mk_pair(lam_value, K0))

    def test_abs_distributes_over_value_sums(self):
        v = add(scale(0.6, K0), scale(0.8, K1))
        out = subst_basis(mk_pair(X, K0), "x", v, ABS)
        expect = add(
            scale(0.6, mk_pair(K0, K0)), scale(0.8, mk_pair(K1, K0))
        )
        assert dist_eq(out, expect)


class TestSigma:
    def test_parallel_substitution(self):
        d = mk_pair(X, Y)
        sigma = {"x": (KET_PLUS, STD), "y": (K1, STD)}
        out = apply_sigma(d, sigma)
        expect = add(
            scale(1 / np.sqrt(2), mk_pair(K0, K1)),
            scale(1 / np.sqrt(2), mk_pair(K1, K1)),
        )
        assert dist_eq(out, expect)

    def test_beta_equivalence(self):
        # applying a lambda and sigma-substituting its body agree
        body = mk_pair(X, mk_app(mk_lam("y", STD, Y), K1))
        lam = mk_lam("x", STD, body)
        from basislam.reduction import evaluate

        via_eval = evaluate(mk_app(lam, KET_MINUS)).final.dist
        via_subst = evaluate(
            apply_sigma(body, {"x": (KET_MINUS, STD)})
        ).final.dist
        assert dist_eq(via_eval, via_subst)


# ---------------------------------------------------------------------------
# Reference: decomposition with the residual built one element at a time,
# and basis-directed and tensor substitution and the case match adding
# one piece at a time, every element substituted on every call, nothing
# stored.


def ref_decompose(v, b):
    coeffs = [inner_product(e, v) for e in b.elements]
    residual = v
    for c, e in zip(coeffs, b.elements):
        residual = sub(residual, scale(c, e))
    if not sc_is_zero(norm(residual)):
        return None
    return coeffs


def ref_case_fire(value, patterns, branches):
    coeffs = ref_decompose(value, Ortho(patterns))
    if coeffs is None:
        return SubstUndefined, "case scrutinee outside pattern span"
    out = zero()
    for c, branch in zip(coeffs, branches):
        if c != 0:
            out = add(out, scale(c, branch))
    return out


def ref_subst_basis(body, x, v, basis):
    if not is_value_dist(v):
        raise ValueError("substituted distribution must be a value")
    if isinstance(basis, AbsBasis):
        return add(
            *(scale(c, subst_dist(body, x, single(t))) for t, c in v.entries)
        )
    coeffs = ref_decompose(v, basis)
    if coeffs is None:
        raise SubstUndefined("argument not in annotation span")
    out = zero()
    for c, element in zip(coeffs, basis.elements):
        if c != 0:
            out = add(out, scale(c, subst_dist(body, x, element)))
    return out


def ref_subst_tensor(body, x1, b1, x2, b2, v):
    if not is_value_dist(v):
        raise ValueError("substituted distribution must be a value")
    if not is_closed(v):
        raise ValueError("tensor substitution needs a closed value")
    if x1 == x2:
        raise ValueError("let pair binders must be distinct")
    if not all(isinstance(t, Pair) for t, _ in v.entries):
        raise SubstUndefined("argument not in annotation span")

    if isinstance(b1, Ortho) and isinstance(b2, Ortho):
        prod = product_basis(b1, b2)
        coeffs = ref_decompose(v, prod)
        if coeffs is None:
            raise SubstUndefined("argument not in annotation span")
        k = len(b2.elements)
        out = zero()
        for idx, c in enumerate(coeffs):
            if c == 0:
                continue
            left = b1.elements[idx // k]
            right = b2.elements[idx % k]
            piece = subst_dist(subst_dist(body, x1, left), x2, right)
            out = add(out, scale(c, piece))
        return out

    if isinstance(b1, AbsBasis) and isinstance(b2, AbsBasis):
        out = zero()
        for t, c in v.entries:
            assert isinstance(t, Pair)
            piece = subst_dist(
                subst_dist(body, x1, single(t.left)), x2, single(t.right)
            )
            out = add(out, scale(c, piece))
        return out

    if isinstance(b1, AbsBasis):
        groups = _ref_group_pairs(v, by_left=True)
        out = zero()
        for key, residual in groups:
            piece = subst_dist(body, x1, single(key))
            out = add(out, ref_subst_basis(piece, x2, residual, b2))
        return out

    groups = _ref_group_pairs(v, by_left=False)
    out = zero()
    for key, residual in groups:
        piece = subst_dist(body, x2, single(key))
        out = add(out, ref_subst_basis(piece, x1, residual, b1))
    return out


def _ref_group_pairs(v, by_left):
    groups = []
    for t, c in v.entries:
        assert isinstance(t, Pair)
        key = t.left if by_left else t.right
        rest = t.right if by_left else t.left
        for i, (k, acc) in enumerate(groups):
            if term_eq(k, key):
                groups[i] = (k, add(acc, scale(c, single(rest))))
                break
        else:
            groups.append((key, scale(c, single(rest))))
    return groups


# ---------------------------------------------------------------------------
# Differential: the stored instances against the reference.

_dd = struct.Struct("dd").pack


def _bits(x):
    """Every field of a term, each coefficient as its two floats' bytes,
    so 0.0 and -0.0 differ, nested coefficients included."""
    if isinstance(x, complex):
        return _dd(x.real, x.imag)
    if isinstance(x, tuple):
        return tuple(_bits(y) for y in x)
    if dataclasses.is_dataclass(x):
        return (type(x).__name__,) + tuple(
            _bits(getattr(x, f.name)) for f in dataclasses.fields(x)
        )
    return x


def _outcome(f):
    try:
        return f()
    except (SubstUndefined, ValueError) as e:
        return type(e), str(e)


def _assert_same(got, ref):
    if isinstance(ref, tuple):  # the exception the reference raised
        assert got == ref
        return
    assert isinstance(got, TermDist)
    assert _dist_key(got) == _dist_key(ref)
    assert _bits(got) == _bits(ref)


def _nodes(d):
    for t, _ in d.entries:
        yield from _term_nodes(t)


def _term_nodes(t):
    yield t
    if isinstance(t, Pair):
        yield from _term_nodes(t.left)
        yield from _term_nodes(t.right)
    elif isinstance(t, App):
        yield from _term_nodes(t.fun)
        yield from _term_nodes(t.arg)
    elif isinstance(t, Lam):
        yield from _nodes(t.body)
    elif isinstance(t, LetPair):
        yield from _term_nodes(t.scrutinee)
        yield from _nodes(t.body)
    elif isinstance(t, Case):
        yield from _term_nodes(t.scrutinee)
        for b in t.branches:
            yield from _nodes(b)


def _corpus_binders():
    """Every abstraction and pair binder with orthonormal annotations and
    every case in the bundled programs, each node once."""
    lams, lets, cases, seen = [], [], [], set()
    for prog in load_corpus().values():
        for d in prog.defs.values():
            for t in _nodes(d):
                if id(t) in seen:
                    continue
                seen.add(id(t))
                if isinstance(t, Lam) and isinstance(t.basis, Ortho):
                    lams.append(t)
                elif isinstance(t, LetPair) and isinstance(
                    t.basis1, Ortho
                ) and isinstance(t.basis2, Ortho):
                    lets.append(t)
                elif isinstance(t, Case):
                    cases.append(t)
    return lams, lets, cases


def _values(rng, elements, arity):
    """Each element, random combinations of them, and random states of
    their arity, which fall outside a span that is not the whole space."""
    return (
        list(elements)
        + [random_combination(rng, elements) for _ in range(3)]
        + [random_state(rng, arity) for _ in range(2)]
    )


def _check_calls(compute, body):
    """The outcomes of compute on a copy of body that stores nothing yet
    (a miss), on the copy again (a hit), and on body itself, which holds
    the instances stored for earlier values."""
    copy = TermDist(body.entries)
    first = _outcome(lambda: compute(copy))
    second = _outcome(lambda: compute(copy))
    shared = _outcome(lambda: compute(body))
    if isinstance(first, TermDist):
        assert second is not first  # never a stored object
    return first, second, shared


def test_corpus_abstractions_match_the_reference():
    rng = np.random.default_rng(0)
    lams, _, _ = _corpus_binders()
    assert len(lams) > 30
    outcomes = set()
    for lam in lams:
        elements = lam.basis.elements
        for v in _values(rng, elements, 1):
            ref = _outcome(
                lambda: ref_subst_basis(lam.body, lam.var, v, lam.basis)
            )
            got = _check_calls(
                lambda b: subst_basis(b, lam.var, v, lam.basis), lam.body
            )
            for g in got:
                _assert_same(g, ref)
            outcomes.add(type(ref))
    assert TermDist in outcomes


def test_corpus_pair_binders_match_the_reference():
    rng = np.random.default_rng(1)
    _, lets, _ = _corpus_binders()
    assert len(lets) >= 5
    for let in lets:
        b1, b2 = let.basis1, let.basis2
        prod = product_basis(b1, b2).elements
        values = _values(rng, prod, 2) + [
            mk_pair(random_combination(rng, b1.elements), b2.elements[0])
        ]
        for v in values:
            ref = _outcome(
                lambda: ref_subst_tensor(
                    let.body, let.var1, b1, let.var2, b2, v
                )
            )
            got = _check_calls(
                lambda b: subst_tensor(b, let.var1, b1, let.var2, b2, v),
                let.body,
            )
            for g in got:
                _assert_same(g, ref)


def test_corpus_case_fires_match_the_reference():
    rng = np.random.default_rng(3)
    _, _, cases = _corpus_binders()
    assert len(cases) >= 10
    outcomes = set()
    for node in cases:
        redex = _Redex(
            (),
            Case(_HOLE_VAR, node.patterns, node.branches),
            node.scrutinee,
            RuleTag.CASE_MATCH,
        )
        arity = support_arity(node.patterns[0])
        # a value of one more qubit lies outside every pattern span
        wider = mk_pair(node.patterns[0], K0)
        for v in _values(rng, node.patterns, arity) + [wider]:
            ref = ref_case_fire(v, node.patterns, node.branches)
            got = _fire(redex, v)
            if isinstance(got, Stuck):
                got = SubstUndefined, got.reason
            _assert_same(got, ref)
            outcomes.add(type(ref))
    assert outcomes == {TermDist, tuple}


def _off_span(rng, n):
    """Orthonormal families of 1 to 4 elements on n qubits, each with
    combinations in its span and, where the space has room, one of them
    pushed off the span by 0.5, 1 and 2 times the tolerance along a unit
    vector orthogonal to it, and a random state."""
    eps = get_settings().eps
    full = random_ortho(rng, n).elements
    for k in range(1, min(4, len(full)) + 1):
        family = Ortho(full[:k])
        values = [random_combination(rng, family.elements) for _ in range(2)]
        if k < len(full):
            values += [add(values[0], scale(f * eps, full[k])) for f in
                       (0.5, 1, 2)]
            values.append(random_state(rng, n))
        yield family, values


def test_decompose_matches_the_sequential_reference():
    rng = np.random.default_rng(8)
    verdicts = set()
    for n in (1, 2, 3):
        for _ in range(8):
            for family, values in _off_span(rng, n):
                for v in values:
                    ref = ref_decompose(v, family)
                    got = decompose(v, family)
                    assert (got is None) == (ref is None)
                    if ref is not None:
                        assert _bits(tuple(got)) == _bits(tuple(ref))
                    verdicts.add(ref is None)
    assert verdicts == {True, False}


def test_one_abstraction_side_matches_the_reference():
    # a pair binder with one @fun side goes through subst_basis on the
    # other side, once per pure value on the @fun side
    rng = np.random.default_rng(2)
    gates = load_corpus()["gates"].defs
    f, x = single(Var("f")), single(Var("x"))
    body = mk_pair(mk_app(f, x), x)
    funs = [gates["NOT"], gates["Hd"]]
    for basis in (STD, HAD):
        for _ in range(4):
            states = [random_combination(rng, basis.elements) for _ in funs]
            v = add(
                *(
                    scale(0.6 if i == 0 else 0.8, mk_pair(g, s))
                    for i, (g, s) in enumerate(zip(funs, states))
                )
            )
            swapped = add(
                *(
                    scale(c, mk_pair(single(t.right), single(t.left)))
                    for t, c in v.entries
                )
            )
            for b1, b2, x1, x2, value in (
                (ABS, basis, "f", "x", v),
                (basis, ABS, "x", "f", swapped),
            ):
                ref = _outcome(
                    lambda: ref_subst_tensor(body, x1, b1, x2, b2, value)
                )
                got = _check_calls(
                    lambda b: subst_tensor(b, x1, b1, x2, b2, value), body
                )
                for g in got:
                    _assert_same(g, ref)
                assert isinstance(ref, TermDist)


def _variants(gate):
    """The gate, an alpha-renamed copy and a copy whose body coefficient
    is off by less than eps: every one term_eq to the gate."""
    (lam, _), = gate.entries
    var, body = rename_away(lam.var, lam.body, frozenset({lam.var}))
    nudged = scale(1 + get_settings().eps / 4, lam.body)
    return [
        gate,
        mk_lam(var, lam.basis, body),
        mk_lam(lam.var, lam.basis, nudged),
    ]


def test_one_abstraction_side_accumulates_like_the_reference():
    # entries whose @fun sides share a class fold into one group, the
    # other sides added in entry order: the same gate with two states,
    # and an alpha-renamed or a nudged copy of the gate beside it
    rng = np.random.default_rng(4)
    gates = load_corpus()["gates"].defs
    f, x = single(Var("f")), single(Var("x"))
    body = mk_pair(mk_app(f, x), x)
    for name in ("NOT", "Hd"):
        gate, *copies = _variants(gates[name])
        for basis in (STD, HAD):
            s1 = random_combination(rng, basis.elements)
            s2 = random_combination(rng, basis.elements)
            values = [
                add(
                    scale(0.6, mk_pair(gate, s1)),
                    scale(0.8, mk_pair(gate, s2)),
                )
            ] + [
                add(scale(0.6, mk_pair(gate, K0)), scale(0.8j, mk_pair(g, K1)))
                for g in copies
            ]
            for v in values:
                groups = _ref_group_pairs(v, by_left=True)
                assert len(groups) == 1 < len(v.entries)
                assert all(term_eq(groups[0][0], t.left) for t, _ in v.entries)
                swapped = add(
                    *(
                        scale(c, mk_pair(single(t.right), single(t.left)))
                        for t, c in v.entries
                    )
                )
                for b1, b2, x1, x2, value in (
                    (ABS, basis, "f", "x", v),
                    (basis, ABS, "x", "f", swapped),
                ):
                    ref = _outcome(
                        lambda: ref_subst_tensor(body, x1, b1, x2, b2, value)
                    )
                    got = _check_calls(
                        lambda b: subst_tensor(b, x1, b1, x2, b2, value),
                        body,
                    )
                    for g in got:
                        _assert_same(g, ref)
                    assert isinstance(ref, TermDist)
        # the copies are other objects, so their entries stay apart
        for g in copies:
            v = add(mk_pair(gate, K0), mk_pair(g, K1))
            assert {id(t.left) for t, _ in v.entries} == {
                id(gate.entries[0][0]),
                id(g.entries[0][0]),
            }


def test_two_abstraction_sides_match_the_earlier_branch():
    # a pair binder with two @fun sides is grouped by the left side's
    # class like one with a single @fun side; the earlier branch
    # substituted entry by entry.  Gates of the library are pairwise not
    # alpha-equivalent, so the two agree bit for bit, a gate repeated on
    # the left included
    rng = np.random.default_rng(9)
    gates = load_corpus()["gates"].defs
    names = sorted(gates)
    f, g = single(Var("f")), single(Var("g"))
    bodies = [
        mk_pair(mk_app(f, K0), mk_app(g, K1)),
        mk_app(f, mk_app(g, K0)),
        mk_pair(g, f),
    ]
    for trial in range(60):
        k = int(rng.integers(1, 5))
        lefts = rng.choice(len(names), size=k, replace=trial % 2 == 1)
        rights = rng.choice(len(names), size=k)
        c = rng.normal(size=k) + 1j * rng.normal(size=k)
        c = c / np.linalg.norm(c)
        v = add(
            *(
                scale(complex(a), mk_pair(gates[names[i]], gates[names[j]]))
                for a, i, j in zip(c, lefts, rights)
            )
        )
        body = bodies[trial % len(bodies)]
        ref = _outcome(lambda: ref_subst_tensor(body, "f", ABS, "g", ABS, v))
        got = _outcome(lambda: subst_tensor(body, "f", ABS, "g", ABS, v))
        _assert_same(got, ref)


def test_two_abstraction_sides_substitute_the_class_representative():
    # an alpha-renamed or nudged copy of a gate beside it on the left is
    # substituted as the first of its class: the result equals the
    # earlier branch's, and bit for bit the earlier branch's on the value
    # with every left side replaced by that representative
    gates = load_corpus()["gates"].defs
    f, g = single(Var("f")), single(Var("g"))
    body = mk_pair(mk_app(f, K0), mk_app(g, K1))
    for name in ("NOT", "Hd", "CNOT"):
        gate, *copies = _variants(gates[name])
        for copy in copies:
            for a, b in ((gate, copy), (copy, gate)):
                v = add(
                    scale(0.6, mk_pair(a, gates["Z"])),
                    scale(0.8j, mk_pair(b, gates["NOT"])),
                )
                rep = single(v.entries[0][0].left)
                pinned = add(
                    *(scale(c, mk_pair(rep, single(t.right)))
                      for t, c in v.entries)
                )
                got = subst_tensor(body, "f", ABS, "g", ABS, v)
                ref = ref_subst_tensor(body, "f", ABS, "g", ABS, v)
                assert dist_eq(got, ref)
                _assert_same(
                    got, ref_subst_tensor(body, "f", ABS, "g", ABS, pinned)
                )


# ---------------------------------------------------------------------------
# What the body stores: keyed on the tolerance, nothing for @fun binders,
# nothing when the substitution raises, at most one entry per element.


def _stored(body):
    return body.__dict__.get("_instances", {})


def _near_case_body():
    """A case on x whose patterns are orthogonal only within 1e-2: a
    substitution into it validates them again under the current eps."""
    a = 0.005
    p1 = add(scale(a, single(Ket(0))), scale((1 - a * a) ** 0.5, K1))
    with local_settings(eps=1e-2):
        return mk_case(X, (K0, p1), (K0, K1))


@pytest.mark.parametrize("loose_first", [True, False])
def test_instances_are_keyed_on_eps(loose_first):
    body = _near_case_body()
    for v in (K0, KET_PLUS):
        with pytest.raises(ValueError, match="not orthogonal"):
            ref_subst_basis(body, "x", v, STD)

    def loose(v):
        with local_settings(eps=1e-2):
            out = subst_basis(body, "x", v, STD)
            _assert_same(out, ref_subst_basis(body, "x", v, STD))

    def strict(v):
        with pytest.raises(ValueError, match="not orthogonal"):
            subst_basis(body, "x", v, STD)

    for v in (K0, KET_PLUS):
        for run in (loose, strict) if loose_first else (strict, loose):
            run(v)
    # only what succeeded is stored, under the eps it ran under
    assert {eps for _, _, eps in _stored(body)} == {1e-2}


def test_abstraction_binder_stores_nothing():
    body = mk_pair(X, K0)
    for v in (K0, KET_PLUS, mk_lam("z", STD, single(Var("z")))):
        subst_basis(body, "x", v, ABS)
    assert "_instances" not in body.__dict__


def test_outside_the_span_stores_nothing():
    body = mk_pair(X, K0)
    with pytest.raises(SubstUndefined):
        subst_basis(body, "x", K1, Ortho((K0,)))
    assert "_instances" not in body.__dict__


def test_a_body_stores_one_instance_per_element():
    rng = np.random.default_rng(3)
    body = mk_pair(X, mk_pair(X, Y))
    for eps in (None, 1e-6):
        with local_settings(**({} if eps is None else {"eps": eps})):
            for _ in range(20):
                subst_basis(body, "x", random_state(rng, 1), HAD)
                subst_basis(body, "y", random_state(rng, 1), HAD)
    keys = list(_stored(body))
    assert len(keys) == 2 * 2 * 2  # names x eps x elements
    for x in ("x", "y"):
        for eps in (get_settings().eps, 1e-6):
            held = [e for name, e, k in keys if (name, k) == (x, eps)]
            assert len(held) <= len(HAD.elements)
            assert all(any(e is h for h in HAD.elements) for e in held)


def test_stored_instances_are_reused(monkeypatch):
    # the second beta over the same body substitutes nothing
    calls = 0
    original = subst.subst_dist

    def counted(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(subst, "subst_dist", counted)
    body = mk_pair(X, K0)
    subst_basis(body, "x", KET_PLUS, STD)
    first = calls
    assert first >= 2
    subst_basis(body, "x", KET_MINUS, STD)
    assert calls == first
