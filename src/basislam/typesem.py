"""Types as sets of value distributions.

A basis type collects the elements of an orthonormal family; a product
collects literal pairs of members; an arrow collects norm-1 sums of
equally annotated abstractions mapping members of the domain to
realizers of the codomain; a sharp type is the span of its argument's
members intersected with the unit sphere.  Membership is decided where
the structure allows it and raises Undecidable where it does not.

One function, pools_realize, evaluates a map pinned by its generators
at every tuple of them, for arrow membership and for the checker's Sem
rule alike, and its linearity law, linear_images_member, decides
whether the images close under unit combinations.

numpy is imported inside factor_rank1, the one matrix computation here,
and only for a sum of more than one summand or of another coefficient
than 1, so a check that factors no such product does not load it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Optional, Union

from .basis import in_span
from .core import (
    Lam,
    Ortho,
    Pair,
    PureTerm,
    TermDist,
    _basis_key,
    _dist_key,
    alpha_classes,
    basis_eq,
    combine,
    dist_eq,
    get_session,
    group_pairs,
    inner_product,
    is_value_dist,
    mk_app,
    mk_pair,
    norm,
    sc_eq,
    sc_is_zero,
    scale,
    single,
)
from .reduction import evaluate_value


@dataclass(frozen=True, eq=False)
class BasisType:
    basis: Ortho


@dataclass(frozen=True, eq=False)
class Arrow:
    dom: "Type"
    cod: "Type"


@dataclass(frozen=True, eq=False)
class Prod:
    left: "Type"
    right: "Type"


@dataclass(frozen=True, eq=False, init=False)
class Sharp:
    """#A.  Since ##A = #A, the sharp of a sharp type is that type itself,
    so no type value holds # directly under #."""

    inner: "Type"

    def __new__(cls, inner: "Type") -> "Sharp":
        if isinstance(inner, Sharp):
            return inner
        self = object.__new__(cls)
        object.__setattr__(self, "inner", inner)
        return self

    def __getnewargs__(self) -> tuple["Type"]:  # copy and pickle
        return (self.inner,)


Type = Union[BasisType, Arrow, Prod, Sharp]


class Undecidable(Exception):
    def __init__(self, message: str = "membership undecidable for this domain"):
        super().__init__(message)
        self.message = message


def type_key(t: Type):
    """Exact structural key of a type, basis names included, so that
    types with equal keys print alike.  Cached on the node."""
    k = t.__dict__.get("_key")
    if k is not None:
        return k
    if isinstance(t, BasisType):
        k = (0, _basis_key(t.basis))
    elif isinstance(t, Arrow):
        k = (1, type_key(t.dom), type_key(t.cod))
    elif isinstance(t, Prod):
        k = (2, type_key(t.left), type_key(t.right))
    else:
        k = (3, type_key(t.inner))
    t.__dict__["_key"] = k
    return k


def _basis_set_eq(a: Ortho, b: Ortho) -> bool:
    if len(a.elements) != len(b.elements):
        return False
    used = [False] * len(b.elements)
    for e in a.elements:
        for j, f in enumerate(b.elements):
            if not used[j] and dist_eq(e, f):
                used[j] = True
                break
        else:
            return False
    return True


def type_eq(a: Type, b: Type) -> bool:
    """Structural equality; basis types compare their elements as
    multisets."""
    if type(a) is not type(b):
        return False
    if isinstance(a, BasisType):
        return _basis_set_eq(a.basis, b.basis)
    if isinstance(a, Arrow):
        return type_eq(a.dom, b.dom) and type_eq(a.cod, b.cod)
    if isinstance(a, Prod):
        return type_eq(a.left, b.left) and type_eq(a.right, b.right)
    return type_eq(a.inner, b.inner)


def finite_members(t: Type) -> Optional[list[TermDist]]:
    """The complete list of members when the type denotes a finite set."""
    if isinstance(t, BasisType):
        return list(t.basis.elements)
    if isinstance(t, Prod):
        return _pairs(finite_members(t.left), finite_members(t.right))
    return None


def span_generators(t: Type) -> Optional[list[TermDist]]:
    """An orthonormal family spanning the same space as the type's
    members, when one exists."""
    if isinstance(t, BasisType):
        return list(t.basis.elements)
    if isinstance(t, Sharp):
        return span_generators(t.inner)
    if isinstance(t, Prod):
        return _pairs(span_generators(t.left), span_generators(t.right))
    return None


def _has_span(t: Type) -> bool:
    """Whether span_generators(t) is not None, without building them."""
    if isinstance(t, BasisType):
        return True
    if isinstance(t, Sharp):
        return _has_span(t.inner)
    if isinstance(t, Prod):
        return _has_span(t.left) and _has_span(t.right)
    return False


def linear_pool(t: Type) -> Optional[tuple[bool, list[TermDist]]]:
    """The values that pin down a linear map on t: the members of a
    finite type, else the span generators of a sharp type (flagged
    True), which suffice by linearity; None when t has neither."""
    members = finite_members(t)
    if members is not None:
        return False, members
    gens = span_generators(t) if isinstance(t, Sharp) else None
    return None if gens is None else (True, gens)


def _pairs(
    left: Optional[list[TermDist]], right: Optional[list[TermDist]]
) -> Optional[list[TermDist]]:
    """Every pair of a left and a right element, the left index varying
    slowest; None when either side is None."""
    if left is None or right is None:
        return None
    return [mk_pair(l, r) for l in left for r in right]


# ---------------------------------------------------------------------------
# Membership.


def is_member(v: TermDist, t: Type) -> bool:
    return _member(v, t, phase=False)


def is_member_phase(v: TermDist, t: Type) -> bool:
    """Membership up to a global phase."""
    return _member(v, t, phase=True)


def _member(v: TermDist, t: Type, phase: bool) -> bool:
    if not is_value_dist(v):
        raise ValueError("membership is defined on value distributions")
    if v.is_zero():
        return False
    if isinstance(t, BasisType):
        for e in t.basis.elements:
            # an exact member is a member up to phase, also where |<e|v>|
            # misses 1 by more than a tiny eps
            if dist_eq(v, e):
                return True
            if phase:
                o = inner_product(e, v)
                if sc_eq(abs(o), 1.0) and dist_eq(v, scale(o, e)):
                    return True
        return False
    if isinstance(t, Sharp):
        gens = span_generators(t)
        if gens is None:
            # span of an arrow type: a member of the arrow itself is the
            # only certificate this checker can produce
            if _member(v, t.inner, True):
                return True
            raise Undecidable()
        return sc_eq(norm(v), 1.0) and in_span(v, Ortho(tuple(gens)))
    if isinstance(t, Prod):
        return _prod_member(v, t, phase)
    return _arrow_member(v, t)


def _prod_member(v: TermDist, t: Prod, phase: bool) -> bool:
    if not all(isinstance(u, Pair) for u, _ in v.entries):
        return False
    sides = ((True, t.left, t.right), (False, t.right, t.left))
    for by_left, this, other in sides:
        members = finite_members(this)
        if members is None:
            continue
        # the factor on a finite side must be one of its members exactly;
        # any global phase moves into the residual factor
        groups = group_pairs(v, by_left)
        for m in members:
            residual = combine(
                (inner_product(m, single(k)), g) for k, g in groups
            )
            if residual.is_zero():
                continue
            pair = (m, residual) if by_left else (residual, m)
            if dist_eq(mk_pair(*pair), v):
                return _member(residual, other, phase)
        return False
    return _rank1_member(v, t)


def _rank1_member(v: TermDist, t: Prod) -> bool:
    """Both factor types are spans: factor the coefficient matrix and
    test the two factors, which works because spans absorb the phase
    split between them."""
    if not (_has_span(t.left) and _has_span(t.right)):
        raise Undecidable()
    factors = factor_rank1([(u.left, u.right, c) for u, c in v.entries])
    if factors is None:
        return False
    return _member(factors[0], t.left, True) and _member(
        factors[1], t.right, True
    )


def factor_rank1(
    entries: list[tuple[PureTerm, PureTerm, complex]],
) -> Optional[tuple[TermDist, TermDist]]:
    """Write the sum of c (left x right) as (sum of lefts) x (sum of
    rights) when its coefficient matrix, indexed by the alpha-classes of
    the lefts and of the rights, has rank one; None otherwise."""
    if len(entries) == 1 and entries[0][2] == 1:
        # LAPACK gives u = s = vh = 1 for [[1]]: the same two sums, bit
        # for bit, without loading numpy; combine prunes as below
        left, right, _ = entries[0]
        return combine([(1, single(left))]), combine([(1, single(right))])
    import numpy as np
    lefts, li = alpha_classes(lt for lt, _, _ in entries)
    rights, ri = alpha_classes(rt for _, rt, _ in entries)
    m = np.zeros((len(lefts), len(rights)), dtype=complex)
    for i, j, (_, _, c) in zip(li, ri, entries):
        m[i, j] += c
    u, s, vh = np.linalg.svd(m)
    if len(s) > 1 and not sc_is_zero(s[1]):
        return None
    left = combine((u[i, 0], single(lt)) for i, lt in enumerate(lefts))
    right = combine(
        (s[0] * vh[0, j], single(rt)) for j, rt in enumerate(rights)
    )
    return left, right


def _arrow_member(v: TermDist, t: Arrow) -> bool:
    lams = [u for u, _ in v.entries]
    if not all(isinstance(u, Lam) for u in lams):
        return False
    annotation = lams[0].basis
    if not all(basis_eq(u.basis, annotation) for u in lams[1:]):
        # abstractions over different bases never share an arrow type
        return False
    if not sc_eq(norm(v), 1.0):
        return False
    dom, cod = t.dom, t.cod

    members = finite_members(dom)
    if members is not None:
        return all(realizes(mk_app(v, m), cod) for m in members)

    gens = span_generators(dom)
    if gens is None:
        raise Undecidable()
    span_cod = isinstance(cod, Sharp) and _has_span(cod)
    if isinstance(cod, Arrow) or (span_cod and isinstance(dom, Sharp)):
        return _curried_member(v, t)
    if not span_cod:
        raise Undecidable()
    # a product of spans: orthonormal images still prove membership, but
    # the combination that witnesses an overlap is not in the domain
    failed = pools_realize(
        [(True, gens)], lambda args: mk_app(v, *args), cod
    )
    if failed == "overlap":
        raise Undecidable()
    return failed is None


def _curried_member(v: TermDist, t: Arrow) -> bool:
    """Arrows with span domains, curried or not: the map extends
    multilinearly from the domain generators, so its behavior is pinned
    by the images of generator tuples, which pools_realize decides.  For
    a product codomain only single-axis combinations are realizable by
    arguments, so failures there refute membership, while success with
    more than one span axis is left undecided."""
    layers: list[tuple[bool, list[TermDist]]] = []
    cur: Type = t
    while isinstance(cur, Arrow):
        pool = linear_pool(cur.dom)
        if pool is None:
            raise Undecidable()
        layers.append(pool)
        cur = cur.cod
    span_cod = isinstance(cur, Sharp) and _has_span(cur)
    if not span_cod and not isinstance(cur, Prod):
        raise Undecidable()
    failed = pools_realize(layers, lambda args: reduce(mk_app, args, v), cur)
    if failed is not None:
        return False
    if not span_cod and sum(span for span, _ in layers) > 1:
        raise Undecidable()
    return True


def pools_realize(
    pools: list[tuple[bool, list[TermDist]]],
    instance: Callable[[list[TermDist]], TermDist],
    goal: Type,
) -> Optional[str]:
    """Do the instances of a map pinned by its generators realize goal?
    pools holds one linear_pool per argument.  For each choice of the
    finite arguments, instance(args) is evaluated at every tuple of span
    generators in grid order, each image tested before the next, and the
    grid's images must then close under linear_images_member.  An image
    is a member up to a global phase when the grid has one point, as its
    phase multiples are then all the instances, with the verdict that
    realizes tables; exactly otherwise.  Returns None when every grid
    closes, "value" for an instance that reaches no value, "image" for
    an image outside goal, else the law's verdict; an Undecidable
    propagates."""
    finite = [k for k, (span, _) in enumerate(pools) if not span]
    spans = [k for k, (span, _) in enumerate(pools) if span]
    grid = [range(len(pools[k][1])) for k in spans]
    one_point = all(len(g) == 1 for g in grid)
    member = _tabled_member_phase if one_point else is_member
    for fixed in itertools.product(*(pools[k][1] for k in finite)):
        images: dict[tuple[int, ...], TermDist] = {}
        for idx in itertools.product(*grid):
            chosen = dict(zip(finite, fixed))
            chosen.update((k, pools[k][1][i]) for k, i in zip(spans, idx))
            w = evaluate_value(instance([chosen[k] for k in sorted(chosen)]))
            if w is None:
                return "value"
            if not member(w, goal):
                return "image"
            images[idx] = w
        failed = linear_images_member(images, goal)
        if failed is not None:
            return failed
    return None


def linear_images_member(
    images: dict[tuple[int, ...], TermDist], cod: Type
) -> Optional[str]:
    """The linearity law: do images that pin down a linear map close
    under unit combinations?  They are keyed by tuples of generator
    indices, one per span argument, and the caller has found each one a
    member of cod.  One image closes.  Otherwise the images must be
    orthogonal: every two into a sharp type, else every two whose tuples
    differ at one place.  Into a sharp type, orthogonal images close;
    into a product, when both half-combinations (phases 1 and i) of
    every two tuples that differ at one place are members, up to a
    global phase (only a finite factor could notice one, and two
    orthogonal members of it never combine into a member).  A product's
    members have unit norm, so two images whose half-combinations are
    both members are orthogonal already: testing orthogonality first
    moves no verdict.  Returns None when they close, else "overlap",
    "combination" or, for any other codomain, "shape"."""
    if len(images) == 1:
        return None
    sharp = isinstance(cod, Sharp)
    pairs = list(itertools.combinations(images, 2))
    if not sharp:
        # pairs whose tuples differ at one place, that place varying slowest
        pairs = [
            (a, b)
            for pos in range(len(pairs[0][0]))
            for a, b in pairs
            if [q for q in range(len(a)) if a[q] != b[q]] == [pos]
        ]
    for a, b in pairs:
        if not sc_is_zero(inner_product(images[a], images[b])):
            return "overlap"
    if sharp:
        return None
    if not isinstance(cod, Prod):
        return "shape"
    half = 2.0 ** -0.5
    for a, b in pairs:
        for ph in (1, 1j):
            combo = combine(((half, images[a]), (half * ph, images[b])))
            if not _member(combo, cod, True):
                return "combination"
    return None


def realizes(t: TermDist, goal: Type) -> bool:
    """A distribution realizes a type when it reduces to a value that is
    a member up to a global phase."""
    w = evaluate_value(t)
    return w is not None and _tabled_member_phase(w, goal)


def _tabled_member_phase(w: TermDist, goal: Type) -> bool:
    """is_member_phase, tabled inside a session under the value's order
    key and the goal's key; an Undecidable propagates and stores
    nothing."""
    current = get_session()
    if current is None:
        return is_member_phase(w, goal)
    return current.memberships.memo(
        (_dist_key(w), type_key(goal)), lambda: is_member_phase(w, goal)
    )


# ---------------------------------------------------------------------------
# Subtyping: three-valued, True and False only when decided.


def subtype(a: Type, b: Type) -> Optional[bool]:
    if type_eq(a, b):
        return True
    if isinstance(b, Sharp) and type_eq(a, b.inner):
        return True
    members = finite_members(a)
    if members is not None:
        try:
            verdicts = [is_member(m, b) for m in members]
        except Undecidable:
            return None
        return all(verdicts)
    if isinstance(b, Sharp):
        ga = span_generators(a)
        gb = span_generators(b)
        if ga is not None and gb is not None:
            span = Ortho(tuple(gb))
            return all(in_span(g, span) for g in ga)
    if isinstance(a, Sharp) and finite_members(b) is not None:
        return False
    if isinstance(a, Arrow) and isinstance(b, Arrow):
        if subtype(b.dom, a.dom) is True and subtype(a.cod, b.cod) is True:
            return True
        return None
    if isinstance(a, Prod) and isinstance(b, Prod):
        left = subtype(a.left, b.left)
        right = subtype(a.right, b.right)
        if left is True and right is True:
            return True
        # componentwise failure is a counterexample whenever the other
        # component is inhabited, which holds for every type formed here
        if left is False or right is False:
            return False
        return None
    return None
