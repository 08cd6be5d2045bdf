"""Substitution: plain capture-avoiding, basis-directed, and tensor.

Plain substitution replaces a variable by a whole distribution, keeping
sums intact under binders.  Basis-directed substitution first decomposes
the incoming value over the binder's annotation basis and substitutes
each basis element separately; it is undefined when the value falls
outside the annotation span.  Tensor substitution does the same for the
two components of a pair binder.

The instances of a body at the elements of an orthonormal annotation
depend on the body alone, not on the value substituted, so a beta over
such a binder is a decomposition and a linear combination of instances
computed once (see `_instance`).  Both contractions over orthonormal
annotations fire through `basis.expand`, which decomposes once and
builds the combination in one construction; a pair binder with an
abstraction side groups the pair's entries by that side's class.
"""

from __future__ import annotations

from .basis import expand, product_basis
from .core import (
    AbsBasis,
    App,
    Basis,
    Case,
    Ket,
    Lam,
    LetPair,
    Ortho,
    Pair,
    PureTerm,
    TermDist,
    Var,
    add,
    combine,
    free_vars,
    get_settings,
    group_pairs,
    is_closed,
    is_value_dist,
    mk_app,
    mk_case,
    mk_lam,
    mk_letpair,
    mk_pair,
    single,
)


class SubstUndefined(Exception):
    """The substituted value cannot be decomposed as required (outside
    the annotation span, or not a pair for a tensor binder)."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def fresh_name(base: str, avoid: frozenset[str]) -> str:
    if base not in avoid:
        return base
    i = 1
    while f"{base}{i}" in avoid:
        i += 1
    return f"{base}{i}"


def rename_away(
    var: str, body: TermDist, avoid: frozenset[str]
) -> tuple[str, TermDist]:
    """The binder var and its body, the binder renamed apart from avoid
    and from the body's free names when it is in avoid."""
    if var not in avoid:
        return var, body
    fresh = fresh_name(var, avoid | free_vars(body))
    return fresh, subst_dist(body, var, single(Var(fresh)))


# ---------------------------------------------------------------------------
# Plain substitution.  The substituted distribution enters term formers
# through the smart constructors, so sums distribute exactly where the
# congruence allows and nowhere else.


def subst_term(t: PureTerm, x: str, v: TermDist) -> TermDist:
    if isinstance(t, Var):
        return v if t.name == x else single(t)
    if isinstance(t, Ket):
        return single(t)
    if isinstance(t, Pair):
        return mk_pair(subst_term(t.left, x, v), subst_term(t.right, x, v))
    if isinstance(t, App):
        return mk_app(subst_term(t.fun, x, v), subst_term(t.arg, x, v))
    if isinstance(t, Lam):
        if t.var == x or x not in free_vars(t.body):
            return single(t)
        var, body = rename_away(t.var, t.body, free_vars(v) | {x})
        return mk_lam(var, t.basis, subst_dist(body, x, v))
    if isinstance(t, LetPair):
        scrut = subst_term(t.scrutinee, x, v)
        var1, var2, body = t.var1, t.var2, t.body
        if x in (var1, var2) or x not in free_vars(body):
            return mk_letpair(var1, t.basis1, var2, t.basis2, scrut, body)
        fv = free_vars(v) | {x}
        var1, body = rename_away(var1, body, fv | {var2})
        var2, body = rename_away(var2, body, fv | {var1})
        return mk_letpair(
            var1, t.basis1, var2, t.basis2, scrut, subst_dist(body, x, v)
        )
    if isinstance(t, Case):
        scrut = subst_term(t.scrutinee, x, v)
        branches = tuple(subst_dist(b, x, v) for b in t.branches)
        return mk_case(scrut, t.patterns, branches)
    raise TypeError(f"not a pure term: {t!r}")


def subst_dist(d: TermDist, x: str, v: TermDist) -> TermDist:
    return combine((c, subst_term(t, x, v)) for t, c in d.entries)


# ---------------------------------------------------------------------------
# Basis-directed substitution.


def _instance(body: TermDist, x: str, element: TermDist) -> TermDist:
    """subst_dist(body, x, element) for a closed element of an orthonormal
    annotation, computed once and stored on body, as its keys are.

    The result depends only on body, x, element and eps: element is
    closed, so renaming away picks the same names every time, and eps
    decides what construction merges and prunes and which case patterns
    are accepted.  The key holds element itself, compared by identity,
    so no id is reused while body lives.  Per name and eps body holds
    at most one entry per element of the bases it is substituted
    through.  A substitution that raises stores nothing."""
    memo = body.__dict__.get("_instances")  # a miss raises no exception
    if memo is None:
        memo = {}
        object.__setattr__(body, "_instances", memo)
    key = (x, element, get_settings().eps)
    out = memo.get(key)
    if out is None:
        out = memo[key] = subst_dist(body, x, element)
    return out


def subst_basis(body: TermDist, x: str, v: TermDist, basis: Basis) -> TermDist:
    """Substitute a value distribution for x in body, decomposing v over
    the binder's annotation basis first.

    With an abstraction annotation the decomposition is the canonical one
    over pure values, so each pure value in v is substituted separately.
    With an orthonormal annotation v is rewritten over that basis, and
    the result is the combination of body's instances at the elements
    with v's coefficients, each instance substituted once per body (see
    `_instance`); if v has a component outside the span the substitution
    is undefined.  The result is always a new distribution, never a
    stored instance.
    """
    if not is_value_dist(v):
        raise ValueError("substituted distribution must be a value")
    if isinstance(basis, AbsBasis):
        return combine(
            (c, subst_dist(body, x, single(t))) for t, c in v.entries
        )
    out = expand(v, basis, lambda i: _instance(body, x, basis.elements[i]))
    if out is None:
        raise SubstUndefined("argument not in annotation span")
    return out


def subst_tensor(
    body: TermDist,
    x1: str,
    b1: Basis,
    x2: str,
    b2: Basis,
    v: TermDist,
) -> TermDist:
    """Substitute the two components of a pair value for the binders of a
    let, each decomposed over its own annotation basis.

    Requires a closed value: the two component substitutions commute only
    when neither value mentions the other binder.
    """
    if not is_value_dist(v):
        raise ValueError("substituted distribution must be a value")
    if not is_closed(v):
        raise ValueError("tensor substitution needs a closed value")
    if x1 == x2:
        raise ValueError("let pair binders must be distinct")
    if not all(isinstance(t, Pair) for t, _ in v.entries):
        raise SubstUndefined("argument not in annotation span")

    if isinstance(b1, Ortho) and isinstance(b2, Ortho):
        k = len(b2.elements)
        left, right = b1.elements, b2.elements
        out = expand(
            v,
            product_basis(b1, b2),
            lambda i: _instance(
                _instance(body, x1, left[i // k]), x2, right[i % k]
            ),
        )
        if out is None:
            raise SubstUndefined("argument not in annotation span")
        return out

    # An abstraction side: group the pair entries by the class of the pure
    # value on one such side, substitute each class's representative and
    # the group's residual through the other side's annotation.
    by_left = isinstance(b1, AbsBasis)
    x, y, basis = (x1, x2, b2) if by_left else (x2, x1, b1)
    return add(
        *(
            subst_basis(subst_dist(body, x, single(key)), y, residual, basis)
            for key, residual in group_pairs(v, by_left)
        )
    )


# ---------------------------------------------------------------------------
# Context substitutions: one closed value per variable, each substituted
# through its binding's annotation basis.


def apply_sigma(
    d: TermDist, sigma: dict[str, tuple[TermDist, Basis]]
) -> TermDist:
    out = d
    for name in sorted(sigma):
        value, basis = sigma[name]
        if not is_closed(value):
            raise ValueError("context substitutions must be closed values")
        out = subst_basis(out, name, value, basis)
    return out
