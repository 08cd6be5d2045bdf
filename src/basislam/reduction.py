"""Weak call-by-value reduction on canonical distributions.

The strategy never reduces under a lambda, inside a case branch, or in a
let body; it does reduce in both components of a pair, in the argument
and then the function of an application, and in let and case scrutinees.
Within a distribution the canonically first reducible summand fires.
Summands that share the same surrounding context and the same redex up
to its value slot fire together: their slots are recombined into one
value distribution and substituted through the binder's annotation basis
in a single step, which is reduction modulo the vector-space congruence.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from .basis import decompose
from .core import (
    App,
    Case,
    Lam,
    LetPair,
    Ortho,
    Pair,
    PureTerm,
    TermDist,
    Var,
    _dist_key,
    add,
    get_session,
    get_settings,
    is_pure_value,
    sc_eq,
    scale,
    single,
    term_eq,
)
from .subst import SubstUndefined, subst_basis, subst_tensor, subst_term

_HOLE = "__hole__"  # lexer identifiers never start with an underscore

class RuleTag(enum.Enum):
    BETA = "Beta"
    LET_TENSOR = "LetTensor"
    CASE_MATCH = "CaseMatch"
    CTX_APP_LEFT = "CtxAppLeft"
    CTX_APP_RIGHT = "CtxAppRight"
    CTX_PAIR_LEFT = "CtxPairLeft"
    CTX_PAIR_RIGHT = "CtxPairRight"
    CTX_SCALAR = "CtxScalar"
    CTX_SUM = "CtxSum"
    CTX_LET = "CtxLet"
    CTX_CASE = "CtxCase"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, eq=False)
class Reduced:
    dist: TermDist
    rule: RuleTag


@dataclass(frozen=True, eq=False)
class NormalForm:
    dist: TermDist


@dataclass(frozen=True, eq=False)
class Stuck:
    reason: str
    offending: Optional[PureTerm]


StepResult = Union[Reduced, NormalForm, Stuck]


@dataclass
class Trace:
    steps: list[tuple[TermDist, RuleTag]] = field(default_factory=list)
    final: Optional[StepResult] = None
    fuel_used: int = 0


# ---------------------------------------------------------------------------
# Redex search.  A located redex is described by two pure terms: the
# context, with a hole variable at the redex node, and the redex itself,
# with the hole at its value slot.  The search direction taken at the
# root decides the context rule that names the step.


@dataclass
class _Redex:
    context: PureTerm
    redex_repr: PureTerm  # beta App, LetPair or Case, hole at the slot
    slot: PureTerm
    rule: RuleTag  # the redex's own rule, or the context rule at the root


_Found = Union[_Redex, Stuck]


def _wrap(
    sub: _Found, build: Callable[[PureTerm], PureTerm], rule: RuleTag
) -> _Found:
    if isinstance(sub, Stuck):
        return sub
    return _Redex(build(sub.context), sub.redex_repr, sub.slot, rule)


def _find(t: PureTerm) -> Optional[_Found]:
    """Locate the redex this strategy fires inside a pure term, a stuck
    position blocking it, or None when t is already a pure value."""
    if is_pure_value(t):
        return None
    if isinstance(t, Pair):
        if not is_pure_value(t.left):
            sub = _find(t.left)
            assert sub is not None
            return _wrap(
                sub, lambda c: Pair(c, t.right), RuleTag.CTX_PAIR_LEFT
            )
        sub = _find(t.right)
        assert sub is not None
        return _wrap(sub, lambda c: Pair(t.left, c), RuleTag.CTX_PAIR_RIGHT)
    if isinstance(t, App):
        if not is_pure_value(t.arg):
            sub = _find(t.arg)
            assert sub is not None
            return _wrap(sub, lambda c: App(t.fun, c), RuleTag.CTX_APP_RIGHT)
        if not is_pure_value(t.fun):
            sub = _find(t.fun)
            assert sub is not None
            return _wrap(sub, lambda c: App(c, t.arg), RuleTag.CTX_APP_LEFT)
        if isinstance(t.fun, Lam):
            return _Redex(
                Var(_HOLE), App(t.fun, Var(_HOLE)), t.arg, RuleTag.BETA
            )
        if isinstance(t.fun, Var):
            return Stuck("free variable", t.fun)
        return Stuck("non-value in value position", t.fun)
    if isinstance(t, LetPair):
        if not is_pure_value(t.scrutinee):
            sub = _find(t.scrutinee)
            assert sub is not None
            return _wrap(
                sub,
                lambda c: LetPair(
                    t.var1, t.basis1, t.var2, t.basis2, c, t.body
                ),
                RuleTag.CTX_LET,
            )
        if isinstance(t.scrutinee, Var):
            return Stuck("free variable", t.scrutinee)
        return _Redex(
            Var(_HOLE),
            LetPair(t.var1, t.basis1, t.var2, t.basis2, Var(_HOLE), t.body),
            t.scrutinee,
            RuleTag.LET_TENSOR,
        )
    if isinstance(t, Case):
        if not is_pure_value(t.scrutinee):
            sub = _find(t.scrutinee)
            assert sub is not None
            return _wrap(
                sub,
                lambda c: Case(c, t.patterns, t.branches),
                RuleTag.CTX_CASE,
            )
        if isinstance(t.scrutinee, Var):
            return Stuck("free variable", t.scrutinee)
        return _Redex(
            Var(_HOLE),
            Case(Var(_HOLE), t.patterns, t.branches),
            t.scrutinee,
            RuleTag.CASE_MATCH,
        )
    raise TypeError(f"not a pure term: {t!r}")


def _same_redex(a: _Redex, b: _Redex) -> bool:
    return term_eq(a.context, b.context) and term_eq(
        a.redex_repr, b.redex_repr
    )


def _instance(r: _Redex, slot: PureTerm) -> PureTerm:
    filled = subst_term(r.redex_repr, _HOLE, single(slot))
    assert len(filled) == 1
    return filled.entries[0][0]


def _fire(r: _Redex, value: TermDist) -> Union[TermDist, Stuck]:
    node = r.redex_repr
    if isinstance(node, Case):
        coeffs = decompose(value, Ortho(node.patterns))
        if coeffs is not None:
            return add(*(scale(c, b) for c, b in zip(coeffs, node.branches)))
        reason = "case scrutinee outside pattern span"
    else:
        try:
            if isinstance(node, App):
                assert isinstance(node.fun, Lam)
                lam = node.fun
                return subst_basis(lam.body, lam.var, value, lam.basis)
            assert isinstance(node, LetPair)
            return subst_tensor(
                node.body, node.var1, node.basis1, node.var2, node.basis2,
                value,
            )
        except SubstUndefined as e:
            reason = e.reason
    # the stuck redex, shown with the first summand of its value
    offending = _instance(r, value.entries[0][0]) if value.entries else None
    return Stuck(reason, offending)


def step(d: TermDist) -> StepResult:
    """One deterministic step: the canonically first reducible summand
    fires, together with every summand sharing its context and redex."""
    finds = [_find(t) for t, _ in d.entries]
    picked = next((f for f in finds if isinstance(f, _Redex)), None)
    if picked is None:
        for f in finds:
            if isinstance(f, Stuck):
                return f
        return NormalForm(d)

    group = [
        i
        for i, f in enumerate(finds)
        # term_eq is reflexive: the picked redex joins without a walk
        if f is picked or (isinstance(f, _Redex) and _same_redex(f, picked))
    ]
    value = add(
        *(scale(d.entries[i][1], single(finds[i].slot)) for i in group)
    )
    fired = _fire(picked, value)
    if isinstance(fired, Stuck):
        return fired
    plugged = subst_term(picked.context, _HOLE, fired)
    rest = add(
        *(
            scale(c, single(t))
            for i, (t, c) in enumerate(d.entries)
            if i not in group
        )
    )
    result = add(plugged, rest)

    if len(group) < len(d.entries):
        tag = RuleTag.CTX_SUM
    elif len(group) == 1 and not sc_eq(d.entries[group[0]][1], 1):
        tag = RuleTag.CTX_SCALAR
    else:
        tag = picked.rule
    return Reduced(result, tag)


def evaluate(d: TermDist) -> Trace:
    """Reduce to normal form, recording every step; stops with a stuck
    result or after the fuel of the current settings runs out."""
    max_steps = get_settings().max_steps
    trace = Trace()
    current = d
    for used in range(max_steps):
        res = step(current)
        if isinstance(res, Reduced):
            trace.steps.append((res.dist, res.rule))
            current = res.dist
            continue
        trace.final = res
        trace.fuel_used = used
        return trace
    res = step(current)
    if isinstance(res, Reduced):
        trace.final = Stuck(f"fuel exhausted after {max_steps} steps", None)
    else:
        trace.final = res
    trace.fuel_used = max_steps
    return trace


def evaluate_value(d: TermDist) -> Optional[TermDist]:
    """The normal form of d, or None when evaluation sticks or the fuel
    runs out.  Inside a session each input is evaluated once.  The key
    leaves out the names of basis annotations, so the normal form is
    meant for a verdict, not for printing."""
    current = get_session()
    if current is None:
        return _normal_form(d)
    return current.evaluations.memo(
        (_dist_key(d), get_settings()), lambda: _normal_form(d)
    )


def _normal_form(d: TermDist) -> Optional[TermDist]:
    trace = evaluate(d)
    if isinstance(trace.final, NormalForm):
        return trace.final.dist
    return None


# the reduction relation is written as an evaluator; keep the short name
eval = evaluate
