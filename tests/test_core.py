import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import gen
from basislam import core
from basislam.core import (
    ABS,
    Ket,
    Lam,
    Ortho,
    Settings,
    TermDist,
    Var,
    add,
    combine,
    dist_eq,
    free_vars,
    inner_product,
    is_closed,
    local_settings,
    mk_app,
    mk_case,
    mk_lam,
    mk_letpair,
    mk_pair,
    norm,
    phase_normalize,
    scale,
    single,
    sub,
    term_eq,
    zero,
)
from basislam.basis import HAD, STD
from basislam.reduction import step

K0 = single(Ket(0))
K1 = single(Ket(1))


def ident(name: str = "x") -> TermDist:
    return mk_lam(name, STD, single(Var(name)))


scalars = st.complex_numbers(
    min_magnitude=0.01, max_magnitude=4.0, allow_nan=False, allow_infinity=False
)


def small_dists(draw_scalars=scalars):
    return st.builds(
        lambda a, b, c: add(scale(a, K0), scale(b, K1), scale(c, mk_pair(K0, K1))),
        draw_scalars,
        draw_scalars,
        draw_scalars,
    )


class TestCanonical:
    def test_scalar_merge(self):
        d = add(scale(0.5, K0), scale(0.5, K0))
        assert len(d.entries) == 1
        assert dist_eq(d, single(Ket(0)))

    def test_zero_coefficients_drop(self):
        d = add(K0, scale(-1.0, K0))
        assert d.is_zero()
        assert d.entries == ()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: scale(complex("nan"), K0),
            lambda: scale(float("inf"), K0),
            lambda: add(scale(1e308, K0), scale(1e308, K0)),
            lambda: mk_pair(scale(1e200, K0), scale(1e200, K1)),
            # a step merges the fired 1e308*|0> into the kept 1e308*|0>
            lambda: step(
                add(scale(1e308, mk_app(ident(), K0)), scale(1e308, K0), K1)
            ),
        ],
        ids=["nan", "inf", "sum", "pair", "merge"],
    )
    def test_non_finite_coefficient_raises(self, build):
        with pytest.raises(OverflowError, match="coefficient is not finite"):
            build()

    def test_alpha_equivalence(self):
        assert dist_eq(ident("x"), ident("y"))
        assert term_eq(ident("x").entries[0][0], ident("z").entries[0][0])

    def test_alpha_in_multiset_matching(self):
        a = add(scale(0.5, ident("x")), scale(0.5j, K0))
        b = add(scale(0.5j, K0), scale(0.5, ident("w")))
        assert dist_eq(a, b)

    def test_distinct_terms_not_equal(self):
        assert not dist_eq(K0, K1)
        assert not dist_eq(K0, scale(1.0 + 1e-3, K0))

    def test_annotations_tell_binders_apart(self):
        # a basis of one element against one of two
        lam = mk_lam("x", Ortho((K0,)), single(Var("x"))).entries[0][0]
        assert not term_eq(lam, ident("x").entries[0][0])
        # lets that differ only in the annotation of their second binder
        lets = [
            mk_letpair("a", STD, "b", b, mk_pair(K0, K1), single(Var("a")))
            for b in (STD, HAD)
        ]
        assert not term_eq(lets[0].entries[0][0], lets[1].entries[0][0])

    def test_ket_bit_coercion(self):
        assert term_eq(Ket("1"), Ket(1))
        with pytest.raises(ValueError, match="ket bit must be 0 or 1"):
            Ket(2)

    @given(small_dists(), small_dists(), small_dists())
    def test_add_associative_commutative(self, a, b, c):
        assert dist_eq(add(add(a, b), c), add(a, add(b, c)))
        assert dist_eq(add(a, b), add(b, a))

    @given(scalars, small_dists(), small_dists())
    def test_scale_distributes(self, k, a, b):
        assert dist_eq(scale(k, add(a, b)), add(scale(k, a), scale(k, b)))

    @given(small_dists())
    def test_sub_is_additive_inverse(self, a):
        assert sub(a, a).is_zero()


# ---------------------------------------------------------------------------
# combine against the combination it replaces: scale each piece, then add.


def ref_combine(pieces):
    return add(*(d if c is None else scale(c, d) for c, d in pieces))


def outcome(build):
    """The built distribution as (term object, coefficient bits) pairs,
    or "overflow" when building raises OverflowError."""
    try:
        d = build()
    except OverflowError as e:
        assert str(e) == "coefficient is not finite"
        return "overflow"
    return [
        (id(t), type(c).__name__, c.real.hex(), c.imag.hex())
        for t, c in d.entries
    ]


def _factor(rng):
    eps = core.get_settings().eps
    phase = complex(np.exp(2j * np.pi * rng.random()))
    kind = int(rng.integers(9))
    if kind == 0:
        return None
    if kind == 1:  # zeros, signed ones too
        return [0, 0.0, -0.0, 0j, complex(0, -0.0)][int(rng.integers(5))]
    if kind == 2:  # within eps, at it and just above it
        return phase * eps * [0.5, 1.0, 1.5, 2.0][int(rng.integers(4))]
    if kind == 3:  # huge: some sums of these overflow
        return phase * [1e300, 1e308, 1.7e308][int(rng.integers(3))]
    if kind == 4:
        return [-1, -1.0, 1, 2.0 ** -0.5][int(rng.integers(4))]
    if kind == 5:  # a numpy scalar, as the rank-one factors are
        return np.complex128(complex(*rng.normal(size=2)))
    return complex(*rng.normal(size=2))


def _pool(rng):
    """Distributions of zero, one and many entries, many of them sharing
    terms, so that the pieces merge."""
    pool = [core.zero(), K0, K1, ident(), mk_pair(K0, K1)]
    for n in (1, 2, 3):
        pool += [gen.random_state(rng, n) for _ in range(3)]
    pool += [gen.closed_term(rng)[0] for _ in range(12)]
    pool.append(add(scale(1e300, K0), scale(1e-300 + 1.0, K1)))
    return pool


class TestCombine:
    def test_matches_scale_then_add(self):
        rng = np.random.default_rng(7)
        pool = _pool(rng)
        seen = set()
        for _ in range(600):
            pieces = [
                (_factor(rng), pool[int(rng.integers(len(pool)))])
                for _ in range(int(rng.integers(1, 6)))
            ]
            want = outcome(lambda: ref_combine(pieces))
            assert outcome(lambda: combine(pieces)) == want
            seen.add("overflow" if want == "overflow" else len(want) > 0)
        assert seen == {"overflow", True, False}

    def test_singletons_and_generated_distributions(self):
        rng = np.random.default_rng(8)
        for _ in range(60):
            d = gen.closed_term(rng)[0]
            pieces = [(complex(*rng.normal(size=2)), single(t)) for t, _ in d]
            pieces += [(None, d), (-1, d), (0.5j, d)]
            assert outcome(lambda: combine(pieces)) == outcome(
                lambda: ref_combine(pieces)
            )

    def test_pieces_built_under_another_eps(self):
        # a piece canonical under another eps is scaled and merged again,
        # as scale would, under the current one
        with local_settings(eps=1e-12):
            small = add(K0, scale(1e-10, K1))  # kept under 1e-12 only
        near = add(
            scale(0.5, mk_lam("x", STD, single(Var("x")))),
            scale(0.5, mk_lam("x", STD, scale(1 + 1e-5, single(Var("x"))))),
        )
        assert len(small) == 2 and len(near) == 2
        for eps in (1e-9, 1e-3):
            with local_settings(eps=eps):
                for pieces in (
                    [(2.0, small)],
                    [(1j, near), (None, K0)],
                    [(None, small), (-1, small), (1.0, near)],
                ):
                    got = outcome(lambda: combine(pieces))
                    assert got == outcome(lambda: ref_combine(pieces))
        with local_settings(eps=1e-3):  # the two lambdas merge
            assert len(combine([(1.0, near)])) == 1
            # within the piece first, as scale merges them: 0.1 + (0.2 +
            # 0.3), not (0.1 + 0.2) + 0.3
            x = single(Var("x"))
            third = mk_lam("x", STD, scale(1 - 1e-5, x))
            parts = [
                scale(w, mk_lam("x", STD, scale(1 + off, x)))
                for w, off in ((0.2, 0.0), (0.3, 1e-5))
            ]
            with local_settings(eps=1e-9):
                near = add(*parts)
            pieces = [(None, scale(0.1, third)), (1.0, near)]
            [(_, c)] = combine(pieces).entries
            assert c == 0.1 + (0.2 + 0.3) != (0.1 + 0.2) + 0.3
            assert outcome(lambda: combine(pieces)) == outcome(
                lambda: ref_combine(pieces)
            )

    @pytest.mark.parametrize(
        "pieces",
        [
            [(complex("nan"), K0)],
            [(float("inf"), K0)],
            [(1e308, K0), (1e308, K0)],
            [(1e200, scale(1e200, K0))],
            [(None, scale(1e308, K0)), (1e308, K0)],
        ],
        ids=["nan", "inf", "sum", "product", "none"],
    )
    def test_overflow_raises_where_the_reference_raises(self, pieces):
        assert outcome(lambda: ref_combine(pieces)) == "overflow"
        assert outcome(lambda: combine(pieces)) == "overflow"

    def test_one_construction(self, monkeypatch):
        rng = np.random.default_rng(9)
        pieces = [(complex(*rng.normal(size=2)), gen.random_state(rng, 3))
                  for _ in range(8)]
        calls = 0
        build = core._build

        def counted(pairs):
            nonlocal calls
            calls += 1
            return build(pairs)

        monkeypatch.setattr(core, "_build", counted)
        combine(pieces)
        assert calls == 1


class TestCongruence:
    def test_app_bilinear(self):
        f, g = ident("x"), mk_lam("x", STD, K0)
        lhs = mk_app(add(scale(0.6, f), scale(0.8, g)), K1)
        rhs = add(scale(0.6, mk_app(f, K1)), scale(0.8, mk_app(g, K1)))
        assert dist_eq(lhs, rhs)
        lhs = mk_app(f, add(scale(0.6, K0), scale(0.8, K1)))
        rhs = add(scale(0.6, mk_app(f, K0)), scale(0.8, mk_app(f, K1)))
        assert dist_eq(lhs, rhs)

    def test_pair_bilinear(self):
        lhs = mk_pair(add(scale(0.6, K0), scale(0.8, K1)), K0)
        assert len(lhs.entries) == 2
        rhs = add(scale(0.6, mk_pair(K0, K0)), scale(0.8, mk_pair(K1, K0)))
        assert dist_eq(lhs, rhs)

    def test_scrutinee_linear(self):
        body = mk_pair(single(Var("a")), single(Var("b")))
        scr = add(scale(0.6, mk_pair(K0, K0)), scale(0.8, mk_pair(K1, K1)))
        lhs = mk_letpair("a", STD, "b", STD, scr, body)
        assert len(lhs.entries) == 2

    def test_sums_stay_under_binders(self):
        plus_body = add(scale(0.5, K0), scale(0.5, K1))
        lam = mk_lam("x", STD, plus_body)
        assert len(lam.entries) == 1
        t = lam.entries[0][0]
        assert isinstance(t, Lam)
        assert len(t.body.entries) == 2

    def test_case_branches_not_distributed(self):
        branch = add(scale(0.5, K0), scale(0.5, K1))
        d = mk_case(K0, (K0, K1), (branch, branch))
        assert len(d.entries) == 1

    def test_letpair_requires_distinct_binders(self):
        with pytest.raises(ValueError):
            mk_letpair("x", STD, "x", STD, mk_pair(K0, K0), single(Var("x")))

    def test_case_patterns_must_be_closed_values(self):
        with pytest.raises(ValueError):
            mk_case(K0, (single(Var("y")),), (K0,))


class TestInnerProduct:
    def test_orthonormal_kets(self):
        assert inner_product(K0, K0) == pytest.approx(1.0)
        assert inner_product(K0, K1) == pytest.approx(0.0)

    @given(scalars, small_dists(), small_dists())
    def test_conjugate_in_first_argument(self, k, u, v):
        lhs = inner_product(scale(k, u), v)
        rhs = np.conj(k) * inner_product(u, v)
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))

    @given(small_dists(), small_dists())
    def test_conjugate_symmetry(self, u, v):
        assert inner_product(u, v) == pytest.approx(
            np.conj(inner_product(v, u))
        )

    @given(small_dists())
    def test_norm_squared(self, v):
        assert norm(v) ** 2 == pytest.approx(inner_product(v, v).real)


class TestPhaseNormalize:
    @given(st.floats(min_value=-np.pi, max_value=np.pi))
    def test_recomposition(self, theta):
        p = complex(np.cos(theta), np.sin(theta))
        v = scale(p, add(scale(0.6, K0), scale(0.8j, K1)))
        normalized, phase = phase_normalize(v)
        assert abs(abs(phase) - 1.0) < 1e-12
        assert dist_eq(scale(phase, normalized), v)

    def test_phase_insensitive_representative(self):
        v = add(scale(0.6, K0), scale(0.8j, K1))
        for p in (1.0, -1.0, 1j, complex(np.cos(0.7), np.sin(0.7))):
            normalized, _ = phase_normalize(scale(p, v))
            base, _ = phase_normalize(v)
            assert dist_eq(normalized, base)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            phase_normalize(zero())


class TestMisc:
    def test_free_vars(self):
        d = mk_app(ident("x"), single(Var("y")))
        assert free_vars(d) == frozenset({"y"})
        assert not is_closed(d)
        assert is_closed(ident())

    def test_abs_annotation_singleton(self):
        lam = mk_lam("x", ABS, single(Var("x")))
        t = lam.entries[0][0]
        assert t.basis is ABS

    def test_eps_is_guarded(self):
        for bad in (0.0, -1e-9):
            with pytest.raises(ValueError):
                with local_settings(eps=bad):
                    pass
            with pytest.raises(ValueError):
                Settings(eps=bad)
        for bad in (True, 1j, "1e-3"):
            with pytest.raises(TypeError, match="eps"):
                Settings(eps=bad)
        with local_settings(eps=1e-3):
            assert dist_eq(K0, scale(1.0 + 1e-5, K0))
        assert not dist_eq(K0, scale(1.0 + 1e-5, K0))

    def test_fuel_is_guarded(self):
        with pytest.raises(ValueError):
            Settings(max_steps=-1)
        for bad in (2.5, True, False):
            with pytest.raises(TypeError, match="max steps"):
                Settings(max_steps=bad)

    def test_settings_are_a_table_key(self):
        table = {Settings(): "default"}
        assert table[Settings(eps=1e-9, max_steps=100000)] == "default"
        assert Settings(eps=1e-12) not in table

    def test_eps_is_the_pruning_threshold(self):
        # construction drops a coefficient within eps of zero
        tiny = add(K0, scale(1e-10, K1))
        assert len(tiny.entries) == 1 and dist_eq(tiny, K0)
        with local_settings(eps=1e-12):
            kept = add(K0, scale(1e-10, K1))
        assert [c for _, c in kept.entries] == [1, 1e-10]
