"""Weak call-by-value reduction on canonical distributions.

The strategy never reduces under a lambda, inside a case branch, or in a
let body; it does reduce in both components of a pair, in the argument
and then the function of an application, and in let and case scrutinees.
Within a distribution the canonically first reducible summand fires.
Summands that share the same surrounding context and the same redex up
to its value slot fire together: their slots are recombined into one
value distribution and substituted through the binder's annotation basis
in a single step, which is reduction modulo the vector-space congruence.

A located redex is a stack of frames, one per node of the path from the
summand's root down to the redex, each that node rebuilt around a hole
at the child the path goes through (Huet's zipper).  A step wraps what
fired in new nodes along the frames only, and each new summand's redex
search resumes where the fired part was plugged in rather than at its
root (refocusing, Danvy & Nielsen 2004), so a step costs the fire and a
walk of the frames, not a fresh search and a canonical rebuild of the
path.

A step finds its pending summands, those not yet values, afresh from
the pure-value flag each node fixes when it is built; the pick and the
group scan visit those only.  The distribution a step returns carries
one fact for the next step: once a step has merged fired summands into
kept ones, every summand's shape key (`_shapes`), so a fired summand is
compared only with the kept summands of its shape.  The value and every
other linear combination are built in one construction
(`core.combine`).

`evaluate` records every step of the reduction to a normal form, and
`run` reduces by the same loop but keeps only the answer and the step
count.  Both table the contractions they fire below a summand's root,
keyed on the identity of the redex's fields and on the value's terms
and coefficient bits, so a gate fired on the same value in many
branches of a superposition is substituted once (see `step`).  The
table is the open session's, so it lives as long as the command and
serves every evaluation in it; with no session open, each call opens
one of its own.
"""

from __future__ import annotations

import enum
import math
import struct
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Union

from .basis import expand
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
    _entry_key,
    _term_key,
    add,
    combine,
    get_session,
    get_settings,
    is_canonical,
    sc_eq,
    session,
    single,
    term_eq,
    validate_case_patterns,
)
from .subst import SubstUndefined, subst_basis, subst_tensor, subst_term

_HOLE = "__hole__"  # lexer identifiers never start with an underscore
_HOLE_VAR = Var(_HOLE)  # the one hole every frame and redex is built around

class RuleTag(enum.Enum):
    # members are singletons: hashing by identity keeps the `_REBUILD`
    # lookups in C, where Enum's own hash is a Python call
    __hash__ = object.__hash__

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
# Redex search.  A located redex is a stack of frames and the redex node.
# A frame is one node of the path from the root down to the redex, rebuilt
# around the shared `_HOLE_VAR` at the child the path goes through, with
# the context rule of that child's position; its other children are the
# node's own objects.  The redex node is rebuilt around the hole at its
# value slot.  The rule at the root names the step.


@dataclass(frozen=True)
class _Redex:
    """A redex located in a summand: its frames, innermost first, each a
    node rebuilt around the hole with the context rule of the hole's
    position; the redex node with the hole at its value slot; the value
    in that slot; and the rule that names the step.  The frames hold only
    nodes below the summand's root, so no cycle holds a summand."""

    frames: tuple[tuple[PureTerm, RuleTag], ...]
    redex_repr: PureTerm  # beta App, LetPair or Case, the hole at the slot
    slot: PureTerm
    rule: RuleTag  # the outermost frame's rule, or the redex's own


_Found = Union[_Redex, Stuck]

# How a node is rebuilt around a new child, keyed by the context rule of
# the child's position.
_REBUILD: dict[RuleTag, Callable[[PureTerm, PureTerm], PureTerm]] = {
    RuleTag.CTX_PAIR_LEFT: lambda t, c: Pair(c, t.right),
    RuleTag.CTX_PAIR_RIGHT: lambda t, c: Pair(t.left, c),
    RuleTag.CTX_APP_RIGHT: lambda t, c: App(t.fun, c),
    RuleTag.CTX_APP_LEFT: lambda t, c: App(c, t.arg),
    RuleTag.CTX_LET: lambda t, c: LetPair(
        t.var1, t.basis1, t.var2, t.basis2, c, t.body
    ),
    RuleTag.CTX_CASE: lambda t, c: Case(c, t.patterns, t.branches),
}


def _find(t: PureTerm) -> Optional[_Found]:
    """Locate the redex this strategy fires inside a pure term, a stuck
    position blocking it, or None when t is already a pure value.  Nodes
    are immutable, so the result is cached on the node: a summand that
    does not fire keeps its redex for the next step, and a summand that
    `_plug` makes comes with its redex already found."""
    if t._value:
        return None
    found = t.__dict__.get("_found")  # a miss costs no raised exception
    if found is None:
        found = t.__dict__["_found"] = _search(t)
    return found


def _search(
    t: PureTerm, above: tuple[tuple[PureTerm, RuleTag], ...] = ()
) -> _Found:
    """Walk down from t, a node that is not a pure value, to the redex or
    to the stuck position blocking it, stacking a frame for each level it
    passes on top of above: the frames from t's parent up to the root,
    none when t is the root."""
    below: list[tuple[PureTerm, RuleTag]] = []  # outermost first
    while True:
        if isinstance(t, Pair):
            if t.left._value:
                rule, child = RuleTag.CTX_PAIR_RIGHT, t.right
            else:
                rule, child = RuleTag.CTX_PAIR_LEFT, t.left
        elif isinstance(t, App):
            if not t.arg._value:
                rule, child = RuleTag.CTX_APP_RIGHT, t.arg
            elif not t.fun._value:
                rule, child = RuleTag.CTX_APP_LEFT, t.fun
            elif isinstance(t.fun, Lam):
                rule, own, slot = RuleTag.CTX_APP_RIGHT, RuleTag.BETA, t.arg
                break
            elif isinstance(t.fun, Var):
                return Stuck("free variable", t.fun)
            else:
                return Stuck("non-value in value position", t.fun)
        elif isinstance(t, (LetPair, Case)):
            rule = (
                RuleTag.CTX_LET if isinstance(t, LetPair) else RuleTag.CTX_CASE
            )
            if not t.scrutinee._value:
                child = t.scrutinee
            elif isinstance(t.scrutinee, Var):
                return Stuck("free variable", t.scrutinee)
            else:
                own = (
                    RuleTag.LET_TENSOR
                    if isinstance(t, LetPair)
                    else RuleTag.CASE_MATCH
                )
                slot = t.scrutinee
                break
        else:
            raise TypeError(f"not a pure term: {t!r}")
        below.append((_REBUILD[rule](t, _HOLE_VAR), rule))
        t = child
    frames = tuple(reversed(below)) + above if below else above
    redex_repr = _REBUILD[rule](t, _HOLE_VAR)
    return _Redex(frames, redex_repr, slot, frames[-1][1] if frames else own)


def _same_redex(a: _Redex, b: _Redex) -> bool:
    """Whether a and b have term_eq contexts and redexes.  No frame binds
    a name, so the contexts compare level by level; summands that one
    `_plug` made share their frames, which compare by identity."""
    if a.frames is not b.frames:
        if len(a.frames) != len(b.frames):
            return False
        for (f, _), (g, _) in zip(a.frames, b.frames):
            if f is not g and not term_eq(f, g):
                return False
    return term_eq(a.redex_repr, b.redex_repr)


def _plug(r: _Redex, fired: TermDist) -> TermDist:
    """fired put back in r's place: each entry wrapped in a new node per
    frame, innermost first.  Every other child is the frame's own object,
    so nothing beside the path is rebuilt, re-keyed or re-validated.

    The wrapped entries are already the distribution `_build` would make
    of them, and are returned as they stand.  fired is canonical; nodes
    that differ only in one child order as that child does, and are
    term_eq only when that child is, so the wrapped entries keep fired's
    order and stay pairwise apart; and the factor 1+0j keeps every
    modulus, so nothing is pruned.

    Each new summand is stored with its redex already found (see
    `_find`).  Below its lowest node that is not a pure value nothing
    changed, and at each frame above it the search goes down into that
    node, so those frames stand and the search starts at that node."""
    frames = r.frames
    if not frames:
        return fired
    for frame, _ in frames:  # as mk_case did, the innermost first
        if isinstance(frame, Case):
            validate_case_patterns(frame.patterns)
    # mk_pair and mk_app multiplied each coefficient by 1+0j, which can
    # flip the sign of a zero part and changes nothing twice
    unit = any(isinstance(frame, (Pair, App)) for frame, _ in frames)
    tails: dict[int, tuple] = {}  # one tuple per level, shared by summands
    entries = []
    for t, c in fired.entries:
        level = 0
        for frame, rule in frames:  # up to the lowest non-value
            if not t._value:
                break
            t = _REBUILD[rule](frame, t)
            level += 1
        low, above = t, tails.get(level)
        if above is None:
            above = tails[level] = frames[level:]
        for frame, rule in above:
            t = _REBUILD[rule](frame, t)
        if above or not t._value:
            t.__dict__["_found"] = _search(low, above)
        entries.append((t, c * (1 + 0j) if unit else c))
    out = TermDist(tuple(entries))
    if len(entries) > 1:  # as _build stamps it
        out.__dict__["_eps"] = get_settings().eps
    return out


def _instance(r: _Redex, slot: PureTerm) -> PureTerm:
    filled = subst_term(r.redex_repr, _HOLE, single(slot))
    assert len(filled) == 1
    return filled.entries[0][0]


def _fire(r: _Redex, value: TermDist) -> Union[TermDist, Stuck]:
    node = r.redex_repr
    if isinstance(node, Case):
        fired = expand(value, Ortho(node.patterns), node.branches.__getitem__)
        if fired is not None:
            return fired
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


# a coefficient's two floats as bytes: equal keys are bitwise equal
# coefficients, so 0.0 and -0.0 are told apart
_coeff_bits = struct.Struct("dd").pack


def _fire_key(node: PureTerm, value: TermDist) -> tuple:
    """The table key of a contraction: the identity of the redex's fields
    (the hole left out), and the value's terms and coefficient bits."""
    if isinstance(node, App):
        redex = node.fun
    elif isinstance(node, Case):
        redex = (node.patterns, node.branches)
    else:
        redex = (node.var1, node.basis1, node.var2, node.basis2, node.body)
    return redex, tuple(
        (t, _coeff_bits(c.real, c.imag)) for t, c in value.entries
    )


def _unit_fixed(c: complex) -> bool:
    """Whether c * (1+0j) is c bit for bit: it can flip the sign of a
    zero part, and changes nothing else."""
    u = c * (1 + 0j)
    return _coeff_bits(u.real, u.imag) == _coeff_bits(c.real, c.imag)


def _merge(d: TermDist, group: list[int], new: TermDist) -> TermDist:
    """add(new, the entries of d outside group, each as scale(c,
    single(t)) leaves it), for d canonical under the current eps and new
    built by the constructors: the step's merge.

    d's shape keys, aligned with its entries, and whether every
    coefficient is unchanged by the factor 1+0j (`_shapes`) are computed
    once, here, and carried on to the result, which the next step merges
    into.  The kept entries are d's with group's positions deleted, each
    times 1+0j unless the flag says that changes no bit.  Each entry of
    new is compared only with the kept entries of its shape, in
    ascending order, and joins every one term_eq to it that no earlier
    entry of new has joined, the coefficients adding in add's order; the
    entries of new that survive pruning go in after the kept entries of
    equal order key, as add's stable sort puts them.  A coefficient that
    is not finite raises OverflowError, as in `_build`."""
    entries = d.entries
    index = d.__dict__.get("_shapes")
    if index is None:
        index = d.__dict__["_shapes"] = (
            tuple(t._shape for t, _ in entries),
            all(_unit_fixed(c) for _, c in entries),
        )
    kept = list(entries)
    shapes = list(index[0])
    for i in reversed(group):
        del kept[i], shapes[i]
    if not index[1]:
        kept = [(t, c * (1 + 0j)) for t, c in kept]

    eps = get_settings().eps
    joined: set[int] = set()
    survivors = []
    for t, c in new.entries:
        s = t._shape
        j = -1
        for _ in range(shapes.count(s)):
            j = shapes.index(s, j + 1)
            if j not in joined and term_eq(kept[j][0], t):
                joined.add(j)
                c = c + kept[j][1]
        m = abs(c)
        if m <= eps:
            continue
        if not m < math.inf:
            raise OverflowError("coefficient is not finite")
        survivors.append((t, c, s))
    for j in sorted(joined, reverse=True):
        del kept[j], shapes[j]
    for t, c, s in survivors:
        pos = bisect_right(kept, _term_key(t), key=_entry_key)
        kept.insert(pos, (t, c))
        shapes.insert(pos, s)

    merged = TermDist(tuple(kept))
    fields = merged.__dict__
    fields["_eps"] = eps
    fields["_shapes"] = (  # the kept coefficients are fixed points now
        tuple(shapes),
        all(_unit_fixed(c) for _, c, _ in survivors),
    )
    return merged


def step(d: TermDist) -> StepResult:
    """One deterministic step: the canonically first reducible summand
    fires, together with every summand sharing its context and redex.

    d is expected canonical.  A step finds the summands that are not
    pure values afresh, in one pass over d's pure-value flags, and the
    pick and the group scan visit those only.  The one fact a step
    carries to the next is a merged result's shape keys with a flag
    (`_shapes`, see `_merge`), stored on the distribution as its keys
    are.

    When d was built under the current eps, the entries that do not fire
    are reused, terms and order as they are, and only the fired part is
    merged into them (`_merge`); otherwise they are rebuilt, so that a
    tolerance changed since d was built prunes and merges them too.
    When every summand fires, the plugged distribution is the result.

    The fired part is plugged back in through the redex's frames only:
    each frame gets a new node and keeps its other children as they are,
    so a `Case` beside the path is not validated again under the current
    eps (a `Case` frame is, and a `Case` redex never was).  The new
    summands come with their redexes found, the search resumed where the
    fired part ends rather than started again at the root (see `_plug`).

    Inside a session a step tables its contractions in the session's
    `contractions`, a (redex, value) key to `_fire`'s result; with none
    open it tables nothing.  A hit gives what a fresh `_fire` would
    give, bit for bit, by these rules:

    - The redex is keyed on the identity of its fields, not on their
      structure, and the hole is left out: the `Lam` of an `App`; the
      `patterns` and `branches` tuples of a `Case` (their elements are
      `eq=False` distributions, so tuple equality is element identity);
      the two names, the two bases and the body of a `LetPair`.
    - The value is keyed on its entries: each term object, and its
      coefficient bit for bit.  `0.0 == -0.0`, so a key on the complex
      would merge two values that a fresh fire tells apart, as `scale`
      multiplies the sign of a zero part through.
    - The key holds these objects, so no id is reused while the table
      lives.
    - A hit never hands back a summand that a previous step holds.  At
      the root (no frames) `_plug` returns the fired distribution
      itself, so root fires neither read nor write the table; below the
      root `_plug` wraps every fired summand in new nodes."""
    entries = d.entries
    pending = [i for i, (t, _) in enumerate(entries) if not t._value]
    for at, i in enumerate(pending):
        picked = _find(entries[i][0])
        if isinstance(picked, _Redex):
            break
    else:  # every pending summand is stuck, or none is pending
        return _find(entries[pending[0]][0]) if pending else NormalForm(d)

    group = [i]
    pieces = [(entries[i][1], single(picked.slot))]
    for j in pending[at + 1:]:
        f = _find(entries[j][0])
        if isinstance(f, _Redex) and _same_redex(f, picked):
            group.append(j)
            pieces.append((entries[j][1], single(f.slot)))
    value = combine(pieces)
    current = get_session()
    if picked.frames and current is not None:
        fired = current.contractions.memo(
            _fire_key(picked.redex_repr, value), lambda: _fire(picked, value)
        )
    else:  # a root fire is not tabled: see the last rule above
        fired = _fire(picked, value)
    if isinstance(fired, Stuck):
        return fired
    plugged = _plug(picked, fired)
    if len(group) == len(entries):
        result = plugged
    elif is_canonical(d):
        result = _merge(d, group, plugged)
    else:  # built under another eps: rebuilt, so the current eps prunes
        in_group = set(group)
        kept = [e for i, e in enumerate(entries) if i not in in_group]
        result = add(plugged, combine((c, single(t)) for t, c in kept))

    if len(group) < len(entries):
        tag = RuleTag.CTX_SUM
    elif len(group) == 1 and not sc_eq(entries[group[0]][1], 1):
        tag = RuleTag.CTX_SCALAR
    else:
        tag = picked.rule
    return Reduced(result, tag)


class Outcome(NamedTuple):
    """The answer of an evaluation without its steps (see `run`): a
    normal form or stuck result, and the number of steps taken."""

    final: StepResult
    fuel_used: int


def _reduce(d: TermDist, steps: Optional[list]) -> Outcome:
    """The reduction loop of `evaluate` and `run`.  Each step is appended
    to steps, or dropped as soon as the next one exists when steps is
    None.  The fuel used is counted, not read off steps."""
    max_steps = get_settings().max_steps
    fuel_used = 0
    current = d
    with session():
        while True:
            try:
                res = step(current)
            except OverflowError:
                res = Stuck("coefficient is not finite", None)
            if isinstance(res, Reduced) and fuel_used == max_steps:
                res = Stuck(f"fuel exhausted after {max_steps} steps", None)
            if not isinstance(res, Reduced):
                break
            if steps is not None:
                steps.append((res.dist, res.rule))
            fuel_used += 1
            current = res.dist
    return Outcome(res, fuel_used)


def evaluate(d: TermDist) -> Trace:
    """Reduce to normal form, recording every step; stops with a stuck
    result, at a coefficient that is not finite, or after the fuel of
    the current settings runs out.  The fuel used is the step count.

    The trace holds every intermediate distribution until it is dropped,
    so its memory grows with the steps times their summands.  A caller
    that reads only the final result and the step count calls `run`,
    which reduces by the same loop and keeps only the current step.

    The steps run in a session, the open one or one of this call's own,
    whose table of contractions serves all of them (see `step`): a gate
    fired on the same value in many branches is substituted once, and
    inside an open session an evaluation also reuses the fires of every
    earlier one in the same command.  What outlives the call otherwise
    is stored on the terms themselves: their keys, and the instances of
    each body over an orthonormal annotation that `subst_basis`
    substitutes once (see `subst._instance`)."""
    trace = Trace()
    trace.final, trace.fuel_used = _reduce(d, trace.steps)
    return trace


def run(d: TermDist) -> Outcome:
    """`evaluate`'s final result and fuel used, by the same steps in the
    same session, without the trace: each intermediate distribution is
    dropped once the next exists, so memory holds one step, not all of
    them.  An `Outcome` has no steps field, so code that counts steps
    reads `fuel_used` rather than the length of an empty list."""
    return _reduce(d, None)


def evaluate_value(d: TermDist) -> Optional[TermDist]:
    """The normal form of d, or None when evaluation sticks or the fuel
    runs out.  Inside a session each input is evaluated at most once,
    and a miss also tables its answer under every distribution its trace
    passes through (see `table_trace`), so a later call on one of them
    is a hit.  The key leaves out the names of basis annotations, so the
    normal form is meant for a verdict, not for printing."""
    current = get_session()
    if current is None:  # then table_trace tables nothing
        return table_trace(d, evaluate(d))
    return current.evaluations.memo(
        _dist_key(d), lambda: table_trace(d, evaluate(d))
    )


def table_trace(d: TermDist, trace: Trace) -> Optional[TermDist]:
    """The answer of trace, the evaluation of d: its normal form, or None.
    Inside a session it is also stored, under the evaluation table's key,
    for d and for every distribution of the trace, where no entry is yet.
    `Table.memo` alone counts lookups; what is stored here is what a
    fresh `evaluate_value` of each of them would return:

    - `step` is deterministic, and a fresh evaluation from step i gets
      the whole fuel, at least the fuel that was left at step i.  So a
      normal form, or a stuck term that fuel does not cause (a free
      variable, a value outside a span, a coefficient that is not
      finite), is the answer of every step too.
    - A trace that ran out of fuel says nothing about its steps: a step
      could finish with fresh fuel.  So the steps of a trace that used
      all its fuel, a conservative test, are not stored.
    - The key leaves out basis names, as `evaluate_value`'s does: the
      stored normal form is meant for a verdict, not for printing."""
    answer = trace.final.dist if isinstance(trace.final, NormalForm) else None
    current = get_session()
    if current is None:
        return answer
    dists = [d]
    if trace.fuel_used < get_settings().max_steps:
        dists += [dist for dist, _ in trace.steps]
    entries = current.evaluations.entries
    for dist in dists:
        entries.setdefault(_dist_key(dist), answer)
    return answer


# the reduction relation is written as an evaluator; keep the short name
eval = evaluate
