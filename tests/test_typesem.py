import copy
import dataclasses
import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from basislam.basis import (
    BELL,
    HAD,
    KET_PLUS,
    PHI_PLUS,
    STD,
)
from basislam.core import Ket, local_settings, mk_pair, scale, single
from basislam.syntax import parse_term, parse_type, print_type
from basislam.typesem import (
    Arrow,
    BasisType,
    Prod,
    Sharp,
    Undecidable,
    _curried_member,
    _has_span,
    finite_members,
    is_member,
    is_member_phase,
    linear_pool,
    realizes,
    span_generators,
    subtype,
    type_eq,
)
from gen import random_state

B = BasisType(STD)
X = BasisType(HAD)
K0 = single(Ket(0))
K1 = single(Ket(1))


def _is_normal(t) -> bool:
    """No # directly under #, anywhere in the type."""
    if isinstance(t, BasisType):
        return True
    if isinstance(t, Sharp):
        return not isinstance(t.inner, Sharp) and _is_normal(t.inner)
    return all(_is_normal(getattr(t, f.name)) for f in dataclasses.fields(t))


def _pickled(t):
    return pickle.loads(pickle.dumps(t))


class TestNormalize:
    def test_sharp_idempotent(self):
        once = Sharp(B)
        twice = Sharp(once)
        assert twice is once
        assert _is_normal(twice) and type_eq(twice, Sharp(B))

    def test_nested_sharps_are_normal(self):
        t = Arrow(Sharp(Sharp(B)), Prod(Sharp(Sharp(X)), B))
        assert _is_normal(t)
        assert type_eq(t, Arrow(Sharp(B), Prod(Sharp(X), B)))

    def test_replace_keeps_sharp_normal(self):
        t = dataclasses.replace(Sharp(B), inner=Sharp(X))
        assert _is_normal(t)
        assert type_eq(t, Sharp(X))

    def test_copy_and_pickle_rebuild_sharp(self):
        t = Arrow(Sharp(B), Sharp(Prod(B, X)))
        for clone in (copy.copy, copy.deepcopy, _pickled):
            assert type_eq(clone(t), t)
        assert type_eq(copy.copy(Sharp(B)), Sharp(B))

    def test_type_eq_is_multiset_on_bases(self):
        flipped = BasisType(type(STD)((K1, K0)))
        assert type_eq(BasisType(STD), flipped)
        assert not type_eq(B, X)


class TestMembers:
    def test_finite_members(self):
        assert len(finite_members(B)) == 2
        assert len(finite_members(BasisType(BELL))) == 4
        assert len(finite_members(Prod(B, X))) == 4
        assert finite_members(Sharp(B)) is None
        assert finite_members(Arrow(B, B)) is None

    def test_span_generators(self):
        gens = span_generators(Sharp(B))
        assert gens is not None and len(gens) == 2
        gens2 = span_generators(Sharp(Prod(B, B)))
        assert gens2 is not None and len(gens2) == 4

    def test_linear_pool(self):
        # a finite type's members, else a sharp type's span generators;
        # a product of spans, though it has generators, has no pool
        assert linear_pool(B) == (False, finite_members(B))
        assert linear_pool(Prod(B, X))[0] is False
        assert linear_pool(Sharp(X)) == (True, span_generators(X))
        assert linear_pool(Sharp(Prod(B, X)))[0] is True
        assert span_generators(Prod(Sharp(B), B)) is not None
        assert linear_pool(Prod(Sharp(B), B)) is None
        assert linear_pool(Arrow(B, B)) is None
        assert linear_pool(Sharp(Arrow(B, B))) is None

    def test_basis_membership_is_exact(self):
        assert is_member(K0, B)
        assert not is_member(scale(-1.0, K0), B)
        assert is_member_phase(scale(-1.0, K0), B)
        assert is_member_phase(scale(1j, KET_PLUS), X)
        assert not is_member(KET_PLUS, B)

    @given(st.integers(0, 5000))
    def test_sharp_span_unit_norm(self, seed):
        rng = np.random.default_rng(seed)
        v = random_state(rng, 1)
        assert is_member(v, Sharp(B))
        assert is_member(v, Sharp(X))
        assert not is_member(scale(2.0, v), Sharp(B))
        assert not is_member(scale(0.5, v), Sharp(B))

    def test_entangled_state_splits_sharp_but_not_product(self):
        assert is_member(PHI_PLUS, Sharp(Prod(B, B)))
        assert is_member(PHI_PLUS, Sharp(Prod(X, X)))
        assert not is_member(PHI_PLUS, Prod(Sharp(B), Sharp(B)))

    @given(st.integers(0, 5000))
    def test_product_states_split(self, seed):
        rng = np.random.default_rng(seed)
        v = mk_pair(random_state(rng, 1), random_state(rng, 1))
        assert is_member(v, Prod(Sharp(B), Sharp(B)))
        assert is_member(v, Sharp(Prod(B, B)))


def _types_to_depth(depth: int) -> list:
    """Every type over [B], [X], [Bell], #, * and -> whose longest path
    from the root to a basis type has at most depth nodes."""
    types = [B, X, BasisType(BELL)]
    for _ in range(depth - 1):
        types = (
            types
            + [Sharp(t) for t in types if not isinstance(t, Sharp)]
            + [Prod(a, b) for a, b in itertools.product(types, repeat=2)]
            + [Arrow(a, b) for a, b in itertools.product(types, repeat=2)]
        )
    return types


class TestStructure:
    def test_has_span_agrees_with_span_generators(self):
        types = _types_to_depth(3)
        assert len(types) > 1000
        for t in types:
            assert _has_span(t) == (span_generators(t) is not None), (
                print_type(t)
            )

    @pytest.mark.parametrize("eps", [1e-9, 1e-15, 1e-16, 1e-300])
    def test_exact_membership_implies_membership_up_to_phase(self, eps):
        # |<e|e>| can round off 1 by more than a tiny eps; an element of
        # the basis is still a member up to phase
        atoms = [B, X, BasisType(BELL)]
        types = atoms + [
            Prod(a, b) for a, b in itertools.product(atoms, repeat=2)
        ]
        values = [v for t in types for v in finite_members(t)]
        with local_settings(eps=eps):
            for t in atoms:
                for v in finite_members(t):
                    assert is_member(v, t) and is_member_phase(v, t)
            for t in types:
                for v in values:
                    if is_member(v, t):
                        assert is_member_phase(v, t), (print_type(t), v)


class TestArrowMembership:
    def test_gates(self, gates_prog):
        defs = gates_prog.defs
        assert is_member(defs["Hd"], Arrow(B, X))
        assert is_member(defs["Hd"], Arrow(Sharp(B), Sharp(B)))
        assert is_member(defs["NOT"], Arrow(Sharp(B), Sharp(B)))
        assert is_member(defs["ZX"], Arrow(X, X))
        assert not is_member(defs["Hd"], Arrow(B, B))
        assert not is_member(defs["Cloner"], Arrow(Sharp(B), Sharp(B)))

    def test_curried_gate(self, gates_prog):
        cnot = gates_prog.defs["CNOT"]
        goal = Arrow(Sharp(B), Arrow(Sharp(B), Sharp(Prod(B, B))))
        assert is_member(cnot, goal)
        bad = Arrow(Sharp(B), Arrow(Sharp(B), Prod(Sharp(B), Sharp(B))))
        assert not is_member(cnot, bad)

    def test_norm_two_abstraction_is_no_member(self):
        # identity on every basis vector, but twice its norm
        assert not is_member(parse_term("2 * \\x:B. x"), Arrow(B, B))

    def test_arrow_domain_has_no_linear_pool(self, gates_prog):
        goal = parse_type("#[B] -> ([B] -> [B]) -> #[B]")
        with pytest.raises(Undecidable):
            _curried_member(gates_prog.defs["CNOT"], goal)

    def test_realizes_evaluates_first(self, gates_prog):
        d = parse_term("Hd (NOT |1>)", defs=gates_prog.defs)
        assert realizes(d, X)
        assert realizes(d, Sharp(B))
        assert not realizes(d, B)


class TestSubtype:
    def test_basis_reflexive_up_to_multiset(self):
        assert subtype(B, B) is True
        assert subtype(B, X) is False

    def test_basis_below_its_span(self):
        assert subtype(B, Sharp(B)) is True
        assert subtype(B, Sharp(X)) is True

    def test_sharp_qubit_spans_coincide(self):
        assert subtype(Sharp(B), Sharp(X)) is True
        assert subtype(Sharp(X), Sharp(B)) is True
        assert subtype(Sharp(B), B) is False

    def test_product_of_sharps_below_sharp_product(self):
        assert subtype(Prod(Sharp(B), Sharp(B)), Sharp(Prod(B, B))) is True
        assert subtype(Sharp(Prod(B, B)), Prod(Sharp(B), Sharp(B))) is not True

    def test_arrow_variance(self):
        # covariant in the codomain, contravariant in the domain
        assert subtype(Arrow(Sharp(B), B), Arrow(B, Sharp(B))) is True
        assert subtype(Arrow(B, B), Arrow(Sharp(B), B)) is not True

    def test_prod_componentwise(self):
        assert subtype(Prod(B, X), Prod(Sharp(B), Sharp(X))) is True

    def test_sharp_monotone(self):
        assert subtype(Sharp(Prod(B, B)), Sharp(Prod(X, X))) is True

    def test_products_that_are_not_finite(self):
        # componentwise, since neither side has finitely many members
        assert subtype(Prod(Sharp(B), Sharp(B)), Prod(Sharp(X), Sharp(X)))
        assert subtype(Prod(Sharp(B), B), Prod(Sharp(X), X)) is False
        # an arrow component the semantics cannot decide
        goal = Prod(Sharp(B), Arrow(X, X))
        assert subtype(Prod(Sharp(B), Arrow(B, B)), goal) is None

    def test_undecidable_member_leaves_subtyping_undecided(self):
        # |0> is no abstraction, and the span of an arrow type has no
        # other certificate of membership
        assert subtype(B, Sharp(Arrow(B, B))) is None


class TestFormat:
    def test_named(self):
        assert print_type(Arrow(B, Sharp(X))) == "[B] -> #[X]"
        assert (
            print_type(Arrow(Sharp(Prod(B, B)), B)) == "#([B] * [B]) -> [B]"
        )

    def test_parse_print_mirror(self):
        for src in (
            "([X] -> [X] -> [X] * [X]) -> [B]",
            "(#[B] -> #[B] -> #[B] * #[B]) -> #([B] * [B])",
            "#[B] -> #[Bell] * #[B]",
        ):
            assert print_type(parse_type(src)) == src
