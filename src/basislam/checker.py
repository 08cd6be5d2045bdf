"""Derivation-building type checker.

Judgements hold contexts that bind each variable to a type and the basis
its binder was annotated with.  The checker follows the typing rules
where they apply: variables, sums of equally annotated abstractions,
applications, pairs, the two let rules, the two case rules, sums of
orthogonal realizers, and phase.  Each rule is a module function, and
the memoizing recursion ``_check`` derives every judgement at most once
per session.  Distributions are kept canonical, so before dispatching
the checker refactors a flattened sum back into a single application,
pair, let, or case whenever the congruence allows it: ``_STRUCTURAL``
picks, by the summands' constructor, the refactoring and the rule
function that checks the single node.  Closed subterms can always fall
back to direct evaluation against the goal, and a let or case over an
enumerable context can fall back to a semantic check (Sem) that
evaluates the images generator by generator and closes them by
typesem.pools_realize, the enumerator that arrow membership uses too.
Both fallbacks are recorded in the derivation, never hidden.

Where several rules could apply, the checker backtracks: each
alternative runs under one ``_Tried`` record, in a fixed order, and the
first that succeeds gives the derivation.  When all fail, the reported
error is the recorded one of the lowest ``ErrorKind`` (linearity, then
orthogonality, subtyping, context, other), the earliest among equals.
"""

from __future__ import annotations

import enum
import itertools
from typing import Iterator, Optional

from .core import (
    App,
    Basis,
    Case,
    Lam,
    LetPair,
    Ortho,
    Pair,
    PureTerm,
    Record,
    TermDist,
    Var,
    _basis_id,
    _dist_id,
    basis_eq,
    combine,
    dist_eq,
    free_vars,
    get_session,
    inner_product,
    is_closed,
    mk_app,
    mk_pair,
    replace,
    sc_eq,
    sc_is_zero,
    session,
    single,
    term_eq,
)
from .basis import NAMED_BASES, qubit_arity
from .reduction import NormalForm, evaluate, evaluate_value, table_trace
from .subst import (
    SubstUndefined,
    apply_sigma,
    fresh_name,
    rename_away,
    subst_dist,
)
from .syntax import print_type
from .typesem import (
    Arrow,
    BasisType,
    Prod,
    Sharp,
    Type,
    Undecidable,
    factor_rank1,
    linear_pool,
    pools_realize,
    realizes,
    subtype,
    type_eq,
    type_key,
)


class Binding(Record, frozen=True, eq=False):
    def __init__(self, type: Type, basis: Basis):
        fields = self.__dict__
        fields["type"] = type
        fields["basis"] = basis


Context = dict[str, Binding]


class ErrorKind(enum.IntEnum):
    """What a failed premise says, most telling first: when alternatives
    all fail, the lowest kind is the one reported."""

    LINEAR = 0
    ORTHOGONALITY = 1
    SUBTYPE = 2
    CONTEXT = 3
    OTHER = 4


class CheckError(Exception):
    def __init__(
        self, message: str, note: str = "", kind: ErrorKind = ErrorKind.OTHER
    ):
        super().__init__(message if not note else f"{message} ({note})")
        self.message = message
        self.note = note
        self.kind = kind


class _Tried:
    """The failed alternatives of one backtracking choice.  Each
    alternative runs under ``with tried:``; a CheckError it raises is
    recorded and control passes to the next alternative."""

    def __init__(self) -> None:
        self.errors: list[CheckError] = []

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, error, tb) -> bool:
        if isinstance(error, CheckError):
            # the traceback holds the frame that holds this record, and
            # the context can hold that frame too: drop both, or every
            # failed alternative would leave a reference cycle
            error.__traceback__ = error.__context__ = None
            self.errors.append(error)
            return True
        return False

    def best(self, note: str = "") -> CheckError:
        """The error the choice reports when every alternative failed:
        the lowest kind, the first recorded among equals, or "rule not
        applicable" with the note when no alternative applied."""
        if not self.errors:
            return CheckError("rule not applicable", note)
        return min(self.errors, key=lambda e: e.kind)


class Derivation(Record, frozen=True):
    def __init__(
        self,
        rule: str,
        ctx: tuple[tuple[str, Binding], ...],
        term: TermDist,
        goal: Type,
        premises: tuple["Derivation", ...] = (),
        note: str = "",
    ):
        fields = self.__dict__
        fields["rule"] = rule
        fields["ctx"] = ctx
        fields["term"] = term
        fields["goal"] = goal
        fields["premises"] = premises
        fields["note"] = note

    def walk(self):
        yield self
        for p in self.premises:
            yield from p.walk()


def derivation_bindings(d: Derivation) -> list[tuple[str, Binding]]:
    out = []
    for node in d.walk():
        out.extend(node.ctx)
    return out


def uses_sharp_binding(d: Derivation) -> bool:
    """True when any context anywhere in the derivation binds a variable
    at a sharp type."""
    return any(isinstance(b.type, Sharp) for _, b in derivation_bindings(d))


def _snapshot(ctx: Context) -> tuple[tuple[str, Binding], ...]:
    return tuple(sorted(ctx.items()))


def _node(
    rule: str,
    ctx: Context,
    term: TermDist,
    goal: Type,
    premises: tuple[Derivation, ...] = (),
    note: str = "",
) -> Derivation:
    return Derivation(rule, _snapshot(ctx), term, goal, premises, note)


# ---------------------------------------------------------------------------
# Context bookkeeping: weakening of unused basis-typed variables, and
# splitting with contraction restricted to basis-typed variables.


def _usable(ctx: Context, d: TermDist) -> Context:
    fv = free_vars(d)
    unbound = fv.difference(ctx)
    if unbound:  # the smallest name, whatever the set's iteration order
        raise CheckError(f"unbound variable: {min(unbound)}")
    used: Context = {}
    for x, b in ctx.items():
        if x in fv:
            used[x] = b
        elif not isinstance(b.type, BasisType):
            raise CheckError(
                f"linear variable dropped: {x}", kind=ErrorKind.LINEAR
            )
    return used


def _restrict(ctx: Context, d: TermDist) -> Context:
    """The bindings of the variables free in d."""
    fv = free_vars(d)
    return {x: b for x, b in ctx.items() if x in fv}


def _split(ctx: Context, parts: list[frozenset[str]]) -> list[Context]:
    out: list[Context] = [{} for _ in parts]
    for x, b in ctx.items():
        hits = [i for i, fv in enumerate(parts) if x in fv]
        if len(hits) > 1 and not isinstance(b.type, BasisType):
            raise CheckError(
                f"linear variable duplicated: {x}", kind=ErrorKind.LINEAR
            )
        for i in hits:
            out[i][x] = b
    return out


# ---------------------------------------------------------------------------
# Refactoring canonical sums back into single constructors.  The
# congruence flattens applications, pairs, and scrutinees; these helpers
# undo that where the coefficients allow it, which is an equivalence
# step, not a new rule.


def _factor_bilinear(d: TermDist) -> Optional[tuple[TermDist, TermDist]]:
    """Write a sum of applications (or of pairs) as one application (or
    pair) of two sums when its coefficient matrix has rank one and the
    rebuilt term is d again."""
    if isinstance(d.entries[0][0], App):
        entries = [(t.fun, t.arg, c) for t, c in d.entries]
        rebuild = mk_app
    else:
        entries = [(t.left, t.right, c) for t, c in d.entries]
        rebuild = mk_pair
    factors = factor_rank1(entries)
    if factors is None or not dist_eq(rebuild(*factors), d):
        return None
    return factors


def _factor_scrutinee(
    d: TermDist,
) -> Optional[tuple[PureTerm, TermDist]]:
    """A sum of lets (or of cases, every summand of one class) that differ
    only in the scrutinee is one let (or case) of the summed scrutinees."""
    sample = d.entries[0][0]
    for t, _ in d.entries:
        if not term_eq(replace(t, scrutinee=sample.scrutinee), sample):
            return None
    return sample, combine((c, single(t.scrutinee)) for t, c in d.entries)


# ---------------------------------------------------------------------------
# Value synthesis: closed qubit distributions recognise the named bases
# and otherwise live in the span of the computational products.


def _binder_annotation(t: PureTerm, index: int) -> Optional[Ortho]:
    if not isinstance(t, Lam):
        return None
    if index == 0:
        return t.basis if isinstance(t.basis, Ortho) else None
    for inner, _ in t.body.entries:
        got = _binder_annotation(inner, index - 1)
        if got is not None:
            return got
    return None


def _proposed_arg_doms(fun: TermDist) -> list[Type]:
    """Candidate argument types when neither side of an application can
    be synthesized: the head of the function spine is an abstraction
    literal, and its annotation at the matching binder depth proposes
    the basis span, plain first and then sharp.  Each candidate is still
    verified by the ordinary premises."""
    for t, _ in fun.entries:
        depth = 0
        while isinstance(t, App):
            t = t.fun
            depth += 1
        basis = _binder_annotation(t, depth)
        if basis is not None:
            plain = BasisType(basis)
            return [plain, Sharp(plain)]
    return []


def _std_products(n: int) -> Type:
    b: Type = BasisType(NAMED_BASES["B"])
    if n == 1:
        return b
    return Prod(b, _std_products(n - 1))


def _synth_value(d: TermDist) -> Optional[Type]:
    if not is_closed(d):
        return None
    n = qubit_arity(d)
    if n is None:
        return None
    for basis in NAMED_BASES.values():
        if any(dist_eq(d, e) for e in basis.elements):
            return BasisType(basis)
    return Sharp(_std_products(n))


def _judgement_key(ctx: Context, d: TermDist, goal: Type):
    """Exact key of a judgement: the usable context, the term and the
    goal with every basis name (derivations carry them).  The term and
    each annotation are keyed on their ids in the open session, equal
    exactly when their order keys are."""
    return (
        tuple(
            sorted(
                (x, type_key(b.type), _basis_id(b.basis))
                for x, b in ctx.items()
            )
        ),
        _dist_id(d),
        type_key(goal),
    )


def _sem_instance(
    d: TermDist, sigma: dict[str, tuple[TermDist, Basis]]
) -> TermDist:
    """apply_sigma for the Sem rule: a context value outside its binder's
    annotation span fails the rule."""
    try:
        return apply_sigma(d, sigma)
    except SubstUndefined:
        raise CheckError(
            "rule not applicable",
            "semantic check: a context value is outside its annotation span",
        )


# The Sem rule's note for each failed condition of its images.
_SEM_NOTES = {
    "substitution": "semantic check failed on an enumerated substitution",
    "value": "semantic check: an instance does not reach a value",
    "image": "semantic image check failed",
    "overlap": "semantic images are not orthogonal",
    "combination": "a combination of semantic images leaves the goal",
    "shape": "goal shape not closed under the enumerated combinations",
}


# ---------------------------------------------------------------------------
# The rules: _derive picks those that may apply and backtracks among them.


def _check(ctx: Context, d: TermDist, goal: Type) -> Derivation:
    ctx = _usable(ctx, d)
    current = get_session()
    if current is None:
        return _derive(ctx, d, goal)
    out = current.judgements.memo(
        _judgement_key(ctx, d, goal), lambda: _outcome(ctx, d, goal)
    )
    if isinstance(out, Derivation):
        return out
    kind, message, note = out
    raise CheckError(message, note, kind)


def _outcome(ctx: Context, d: TermDist, goal: Type):
    """The derivation, or the error as (kind, message, note), so that
    a table hit raises an error of its own."""
    try:
        return _derive(ctx, d, goal)
    except CheckError as e:
        e.__traceback__ = e.__context__ = None  # as `_Tried` drops them
        return e.kind, e.message, e.note


def _derive(ctx: Context, d: TermDist, goal: Type) -> Derivation:
    if d.is_zero():
        raise CheckError("rule not applicable", "empty distribution")
    if len(d.entries) == 1:
        t, c = d.entries[0]
        if not sc_eq(c, 1.0) and sc_eq(abs(c), 1.0):
            inner = _check(ctx, single(t), goal)
            return _node("Phase", ctx, d, goal, (inner,), note="global phase")
    tried = _Tried()
    kinds = {type(t) for t, _ in d.entries}
    kind = kinds.pop() if len(kinds) == 1 else None
    if kind is Lam:
        with tried:
            return _check_lams(ctx, d, goal)
    elif kind is Var and len(d.entries) == 1:
        with tried:
            return _check_var(ctx, d, goal)
    elif kind in _STRUCTURAL:
        factor, rule = _STRUCTURAL[kind]
        fact = factor(d)
        if fact is not None:
            with tried:
                return rule(ctx, d, fact[0], fact[1], goal)

    if isinstance(goal, Sharp) and len(d.entries) >= 2:
        with tried:
            return _check_sum(ctx, d, goal)
    # The evaluation fallback must not mask a linearity violation
    # that the structural rules diagnosed.
    if is_closed(d) and not any(
        e.kind is ErrorKind.LINEAR for e in tried.errors
    ):
        with tried:
            return _check_lit(ctx, d, goal)
    raise tried.best()


# -- leaves -----------------------------------------------------------------


def _check_var(ctx: Context, d: TermDist, goal: Type) -> Derivation:
    t, c = d.entries[0]
    assert isinstance(t, Var)
    if not sc_eq(c, 1.0):
        raise CheckError("rule not applicable", "scaled variable")
    binding = ctx[t.name]
    if isinstance(binding.basis, Ortho):
        # the annotation's elements are in the type, and the type lies
        # in the annotation's span
        span = BasisType(binding.basis)
        if (
            subtype(span, binding.type) is not True
            or subtype(binding.type, Sharp(span)) is not True
        ):
            raise CheckError(
                "rule not applicable",
                f"annotation basis of {t.name} does not generate its type",
            )
    axiom = _node("Axiom", ctx, d, binding.type, note=t.name)
    return _coerce(ctx, d, axiom, binding.type, goal)


def _coerce(
    ctx: Context, d: TermDist, inner: Derivation, have: Type, goal: Type
) -> Derivation:
    if type_eq(have, goal):
        return inner
    verdict = subtype(have, goal)
    if verdict is True:
        return _node("Sub", ctx, d, goal, (inner,))
    note = "" if verdict is False else "subtyping not decided for this pair"
    raise CheckError(
        f"subtype check failed {print_type(have)} ≤ {print_type(goal)}",
        note,
        ErrorKind.SUBTYPE,
    )


def _check_lit(ctx: Context, d: TermDist, goal: Type) -> Derivation:
    try:
        ok = realizes(d, goal)
    except Undecidable as e:
        raise CheckError("rule not applicable", str(e))
    if not ok:
        raise CheckError(
            "rule not applicable",
            f"does not evaluate to a member of {print_type(goal)}",
        )
    return _node(
        "Lit", ctx, d, goal, note="closed term evaluated against the goal"
    )


# -- abstractions -----------------------------------------------------------


def _check_lams(ctx: Context, d: TermDist, goal: Type) -> Derivation:
    lams = [t for t, _ in d.entries]
    annotation = lams[0].basis
    if not all(basis_eq(l.basis, annotation) for l in lams[1:]):
        raise CheckError(
            "rule not applicable", "abstraction bases do not match"
        )
    arrow = goal
    sub_needed = False
    if isinstance(goal, Sharp) and isinstance(goal.inner, Arrow):
        arrow = goal.inner
        sub_needed = True
    if not isinstance(arrow, Arrow):
        raise CheckError(
            "rule not applicable", "abstraction against a non-arrow goal"
        )
    var = fresh_name(lams[0].var, frozenset(ctx) | free_vars(d))
    body = combine(
        (c, subst_dist(t.body, t.var, single(Var(var))))
        for t, c in d.entries
    )
    inner_ctx = dict(ctx)
    inner_ctx[var] = Binding(arrow.dom, annotation)
    premise = _check(inner_ctx, body, arrow.cod)
    node = _node("UnitLam", ctx, d, arrow, (premise,))
    if sub_needed:
        return _coerce(ctx, d, node, arrow, goal)
    return node


# -- applications -----------------------------------------------------------


def _check_app(
    ctx: Context, d: TermDist, fun: TermDist, arg: TermDist, goal: Type
) -> Derivation:
    ctx_f, ctx_a = _split(ctx, [free_vars(fun), free_vars(arg)])
    tried = _Tried()
    fun_type = _synth(ctx_f, fun)
    if isinstance(fun_type, Arrow):
        with tried:
            fun_deriv = _check(ctx_f, fun, fun_type)
            arg_deriv = _check(ctx_a, arg, fun_type.dom)
            node = _node("App", ctx, d, fun_type.cod, (fun_deriv, arg_deriv))
            return _coerce(ctx, d, node, fun_type.cod, goal)
    # the argument's type, or else the domains the function proposes
    arg_type = _synth(ctx_a, arg)
    if arg_type is not None:
        doms = [arg_type]
    else:
        doms = _proposed_arg_doms(fun) if fun_type is None else []
    for dom in doms:
        with tried:
            fun_deriv = _check(ctx_f, fun, Arrow(dom, goal))
            arg_deriv = _check(ctx_a, arg, dom)
            return _node("App", ctx, d, goal, (fun_deriv, arg_deriv))
    raise tried.best(
        "cannot determine the type of either side of an application"
    )


def _synth(ctx: Context, d: TermDist) -> Optional[Type]:
    """A type for the distribution when one is apparent: a variable's
    recorded type, an application of a synthesizable function, a
    closed qubit value, or a factorable pair."""
    if len(d.entries) == 1 and isinstance(d.entries[0][0], Var):
        name = d.entries[0][0].name
        if name in ctx and sc_eq(d.entries[0][1], 1.0):
            return ctx[name].type
    value_type = _synth_value(d)
    if value_type is not None:
        return value_type
    kinds = {type(t) for t, _ in d.entries}
    fact = _factor_bilinear(d) if kinds in ({App}, {Pair}) else None
    if fact is None:
        return None
    left = _synth(_restrict(ctx, fact[0]), fact[0])
    if kinds == {Pair}:
        right = _synth(_restrict(ctx, fact[1]), fact[1])
        if left is None or right is None:
            return None
        return Prod(left, right)
    if not isinstance(left, Arrow):
        return None
    try:
        _check(_restrict(ctx, fact[1]), fact[1], left.dom)
    except CheckError:
        return None
    return left.cod


# -- pairs ------------------------------------------------------------------


def _check_pair(
    ctx: Context, d: TermDist, left: TermDist, right: TermDist, goal: Type
) -> Derivation:
    ctx_l, ctx_r = _split(ctx, [free_vars(left), free_vars(right)])
    tried = _Tried()
    candidates: list[tuple[Prod, bool]] = []
    if isinstance(goal, Prod):
        candidates.append((goal, False))
    elif isinstance(goal, Sharp) and isinstance(goal.inner, Prod):
        inner = goal.inner
        candidates.append((Prod(Sharp(inner.left), Sharp(inner.right)), True))
        candidates.append((inner, True))
    for prod, needs_sub in candidates:
        with tried:
            left_d = _check(ctx_l, left, prod.left)
            right_d = _check(ctx_r, right, prod.right)
            node = _node("Pair", ctx, d, prod, (left_d, right_d))
            if needs_sub:
                return _coerce(ctx, d, node, prod, goal)
            return node
    raise tried.best("pair against a non-product goal")


# -- let --------------------------------------------------------------------


def _check_let(
    ctx: Context, d: TermDist, node: LetPair, scrutinee: TermDist, goal: Type
) -> Derivation:
    body = node.body
    ctx_s, ctx_b = _split(
        ctx,
        [free_vars(scrutinee), free_vars(body) - {node.var1, node.var2}],
    )
    # a binder that would shadow a context variable is renamed
    var1, body = rename_away(node.var1, body, frozenset(ctx))
    var2, body = rename_away(node.var2, body, frozenset(ctx))
    tried = _Tried()
    ortho = isinstance(node.basis1, Ortho) and isinstance(node.basis2, Ortho)

    # plain let over a product
    product = _synth(ctx_s, scrutinee)
    if not isinstance(product, Prod) and ortho:
        product = Prod(BasisType(node.basis1), BasisType(node.basis2))
    if isinstance(product, Prod):
        with tried:
            scr_d = _check(ctx_s, scrutinee, product)
            inner_ctx = dict(ctx_b)
            inner_ctx[var1] = Binding(product.left, node.basis1)
            inner_ctx[var2] = Binding(product.right, node.basis2)
            body_d = _check(inner_ctx, body, goal)
            return _node("LetPair", ctx, d, goal, (scr_d, body_d))

    # tensor let: sharp scrutinee, sharp binders, sharp conclusion
    if isinstance(goal, Sharp) and ortho:
        scr_goal = Sharp(Prod(BasisType(node.basis1), BasisType(node.basis2)))
        for body_goal in (goal.inner, goal):
            with tried:
                scr_d = _check(ctx_s, scrutinee, scr_goal)
                inner_ctx = dict(ctx_b)
                inner_ctx[var1] = Binding(
                    Sharp(BasisType(node.basis1)), node.basis1
                )
                inner_ctx[var2] = Binding(
                    Sharp(BasisType(node.basis2)), node.basis2
                )
                body_d = _check(inner_ctx, body, body_goal)
                return _node("LetTensor", ctx, d, goal, (scr_d, body_d))
    else:
        tried.errors.append(
            CheckError(
                "rule not applicable",
                "tensor let needs a sharp goal and basis annotations",
            )
        )

    with tried:
        return _sem_judge(ctx, d, goal)
    raise tried.best()


# -- case -------------------------------------------------------------------


def _check_case(
    ctx: Context, d: TermDist, node: Case, scrutinee: TermDist, goal: Type
) -> Derivation:
    fv_branches = frozenset().union(*(free_vars(b) for b in node.branches))
    ctx_s, ctx_b = _split(ctx, [free_vars(scrutinee), fv_branches])
    pattern_type = BasisType(Ortho(node.patterns))
    tried = _Tried()

    # finite case: scrutinee inhabits the pattern basis itself
    with tried:
        scr_d = _check(ctx_s, scrutinee, pattern_type)
        branch_ds = tuple(_check(ctx_b, b, goal) for b in node.branches)
        return _node("Case", ctx, d, goal, (scr_d,) + branch_ds)

    # unitary case: sharp scrutinee, orthogonal branches, sharp goal
    if isinstance(goal, Sharp):
        for branch_goal in (goal.inner, goal):
            with tried:
                scr_d = _check(ctx_s, scrutinee, Sharp(pattern_type))
                branch_ds = tuple(
                    _check(ctx_b, b, branch_goal) for b in node.branches
                )
                _require_orthogonal(ctx_b, node.branches)
                return _node("UnitCase", ctx, d, goal, (scr_d,) + branch_ds)
    with tried:
        return _sem_judge(ctx, d, goal)
    raise tried.best()


# -- sums -------------------------------------------------------------------


def _check_sum(ctx: Context, d: TermDist, goal: Sharp) -> Derivation:
    weight = sum(abs(c) ** 2 for _, c in d.entries)
    if not sc_eq(weight, 1.0):
        raise CheckError(
            "rule not applicable",
            f"squared coefficients sum to {weight:.6g}, not 1",
        )
    tried = _Tried()
    for part_goal in (goal.inner, goal):
        with tried:
            premises = tuple(
                _check(ctx, single(t), part_goal) for t, _ in d.entries
            )
            _require_orthogonal(ctx, [single(t) for t, _ in d.entries])
            return _node("Sum", ctx, d, goal, premises)
    raise tried.best()


def _require_orthogonal(ctx: Context, parts: list[TermDist]) -> None:
    """The orthogonality premise of the Sum and UnitCase rules, for
    every pair of parts."""
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            if not check_orthogonality(ctx, {}, parts[i], {}, parts[j]):
                raise CheckError(
                    f"orthogonality premise failed (branches {i},{j})",
                    kind=ErrorKind.ORTHOGONALITY,
                )


# -- semantic fallback ------------------------------------------------------


def _sem_judge(ctx: Context, d: TermDist, goal: Type) -> Derivation:
    names: list[tuple[str, Basis]] = []
    pools: list[tuple[bool, list[TermDist]]] = []
    for x, span, values, basis in _context_pools(ctx):
        if span and any(s for s, _ in pools):
            # linearity pins down the images of one span variable
            raise CheckError(
                "context not basis-enumerable",
                f"variable {x}",
                ErrorKind.CONTEXT,
            )
        names.append((x, basis))
        pools.append((span, values))

    def instance(args: list[TermDist]) -> TermDist:
        sigma = {x: (a, basis) for (x, basis), a in zip(names, args)}
        return _sem_instance(d, sigma)

    try:
        failed = pools_realize(pools, instance, goal)
    except Undecidable as e:
        raise CheckError("rule not applicable", str(e))
    if failed is not None:
        if not any(s for s, _ in pools):  # each substitution one instance
            failed = "substitution"
        raise CheckError("rule not applicable", _SEM_NOTES[failed])
    note = "semantic judgement over the enumerated context"
    return _node("Sem", ctx, d, goal, note=note)


# Summands of one constructor: how to refactor the sum into a single
# node, and the rule that checks that node.
_STRUCTURAL = {
    App: (_factor_bilinear, _check_app),
    Pair: (_factor_bilinear, _check_pair),
    LetPair: (_factor_scrutinee, _check_let),
    Case: (_factor_scrutinee, _check_case),
}


# ---------------------------------------------------------------------------
# Public entry points.


def check(ctx: Context, term: TermDist, goal: Type) -> Derivation:
    return _check(ctx, term, goal)


def _context_pools(
    ctx: Context,
) -> Iterator[tuple[str, bool, list[TermDist], Basis]]:
    """Each variable in name order with its type's linear pool (a span
    flag and the values it ranges over, which suffice by linearity) and
    its annotation."""
    for x, b in sorted(ctx.items()):
        pool = linear_pool(b.type)
        if pool is None:
            raise CheckError(
                "context not basis-enumerable",
                f"variable {x}",
                ErrorKind.CONTEXT,
            )
        yield x, *pool, b.basis


def _enumerate_context(
    ctx: Context,
) -> list[dict[str, tuple[TermDist, Basis]]]:
    pools = list(_context_pools(ctx))
    return [
        {x: (value, basis) for (x, _, _, basis), value in zip(pools, combo)}
        for combo in itertools.product(*(values for _, _, values, _ in pools))
    ]


def check_orthogonality(
    gamma: Context,
    delta1: Context,
    t: TermDist,
    delta2: Context,
    s: TermDist,
) -> bool:
    """The orthogonality judgement: under every pair of independent
    substitutions for the two contexts, both sides reduce to values with
    inner product zero.  Sharp variables range over span generators,
    which suffices by linearity.  The judgement's type is the caller's:
    it checks both sides at that type."""
    left_subs = _enumerate_context(_restrict({**gamma, **delta1}, t))
    right_subs = _enumerate_context(_restrict({**gamma, **delta2}, s))
    sides = []
    for term, subs in ((t, left_subs), (s, right_subs)):
        values = []
        for sigma in subs:
            try:
                v = evaluate_value(apply_sigma(term, sigma))
            except SubstUndefined:  # a value outside its annotation span
                return False
            if v is None:
                return False
            values.append(v)
        sides.append(values)
    lefts, rights = sides
    return all(
        sc_is_zero(inner_product(v, w)) for v in lefts for w in rights
    )


class HarnessStep(Record):
    def __init__(self, index: int, rule: str, ok: bool, message: str = ""):
        self.index = index
        self.rule = rule
        self.ok = ok
        self.message = message


class HarnessReport(Record):
    def __init__(
        self,
        ok: bool,
        steps: Optional[list[HarnessStep]] = None,
        failure: str = "",
    ):
        self.ok = ok
        self.steps = [] if steps is None else steps
        self.failure = failure


def subject_reduction_harness(
    ctx: Context, term: TermDist, goal: Type
) -> HarnessReport:
    """Re-check the judgement at every reduction step of the term, in one
    session, so that a sub-judgement shared by the steps is derived once
    and the evaluation of each step is the tabled rest of the trace."""
    with session():
        report = HarnessReport(ok=True)
        try:
            check(ctx, term, goal)
        except CheckError as e:
            return HarnessReport(ok=False, failure=f"initial judgement: {e}")
        trace = evaluate(term)
        table_trace(term, trace)
        for i, (dist, rule) in enumerate(trace.steps):
            try:
                check(ctx, dist, goal)
                report.steps.append(HarnessStep(i, str(rule), True))
            except CheckError as e:
                report.steps.append(HarnessStep(i, str(rule), False, str(e)))
                report.ok = False
    if not isinstance(trace.final, NormalForm):
        report.ok = False
        report.failure = f"evaluation did not finish: {trace.final.reason}"
    return report
