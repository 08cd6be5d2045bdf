import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from basislam.basis import HAD, KET_MINUS, KET_PLUS, STD
from basislam.core import (
    ABS,
    Ket,
    Lam,
    LetPair,
    Ortho,
    Var,
    add,
    dist_eq,
    free_vars,
    mk_app,
    mk_lam,
    mk_letpair,
    mk_pair,
    scale,
    single,
)
from basislam.subst import (
    SubstUndefined,
    apply_sigma,
    fresh_name,
    subst_basis,
    subst_dist,
)
from gen import random_state

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
