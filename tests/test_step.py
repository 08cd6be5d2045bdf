"""The incremental reduction step against the step it replaced.

`reduction.step` caches each node's redex search, keeps the summands
that do not fire as they are, plugs the fired part back in through the
redex's frames only, with each new summand's search resumed at the plug
rather than started again at its root, and merges the result into the
kept summands.  The reference below is the earlier step, kept verbatim
and independent of `reduction`'s redex records: it searches every
summand with an uncached walk, compares redexes with its own
`_same_redex`, plugs through `subst_term`, which rebuilds the whole
context, rebuilds the rest through `scale`/`single`/`add` and sorts the
whole result again.  Whole `evaluate` traces must agree: the same
entries in the same order, the same representative objects,
bitwise-equal coefficients (signed zeros included, nested ones too),
the same rule tags and the same stuck reason and offending term.

`evaluate` also tables its contractions for the length of the call, so
the traces compared here are tabled ones; the tests after the deep
chains pin the plug and the table's own rules.
"""

import dataclasses
import random
from dataclasses import dataclass

import numpy as np
import pytest

import gen
from basislam import core, reduction
from basislam.basis import STD
from basislam.core import (
    ABS,
    App,
    Case,
    Ket,
    Lam,
    LetPair,
    Pair,
    PureTerm,
    TermDist,
    Var,
    add,
    get_settings,
    local_settings,
    mk_app,
    mk_lam,
    mk_pair,
    sc_eq,
    scale,
    single,
    term_eq,
)
from basislam.corpus import EVAL_CASES, load_corpus
from basislam.reduction import (
    _HOLE,
    NormalForm,
    Reduced,
    RuleTag,
    Stuck,
    Trace,
    _fire,
    _fire_key,
    evaluate,
    step,
)
from basislam.subst import subst_term
from basislam.syntax import parse_term

# ---------------------------------------------------------------------------
# Reference: the step with an uncached search, a context plugged through
# subst_term and a rebuilt rest.


@dataclass(frozen=True)
class _Redex:
    context: PureTerm
    redex_repr: PureTerm  # beta App, LetPair or Case, hole at the slot
    slot: PureTerm
    rule: RuleTag  # the redex's own rule, or the context rule at the root


def _same_redex(a: _Redex, b: _Redex) -> bool:
    return term_eq(a.context, b.context) and term_eq(
        a.redex_repr, b.redex_repr
    )


def ref_is_pure_value(t):
    if isinstance(t, (Var, Ket, Lam)):
        return True
    if isinstance(t, Pair):
        return ref_is_pure_value(t.left) and ref_is_pure_value(t.right)
    return False


def _wrap(sub, build, rule):
    if isinstance(sub, Stuck):
        return sub
    return _Redex(build(sub.context), sub.redex_repr, sub.slot, rule)


def ref_find(t):
    if ref_is_pure_value(t):
        return None
    if isinstance(t, Pair):
        if not ref_is_pure_value(t.left):
            sub = ref_find(t.left)
            assert sub is not None
            return _wrap(
                sub, lambda c: Pair(c, t.right), RuleTag.CTX_PAIR_LEFT
            )
        sub = ref_find(t.right)
        assert sub is not None
        return _wrap(sub, lambda c: Pair(t.left, c), RuleTag.CTX_PAIR_RIGHT)
    if isinstance(t, App):
        if not ref_is_pure_value(t.arg):
            sub = ref_find(t.arg)
            assert sub is not None
            return _wrap(sub, lambda c: App(t.fun, c), RuleTag.CTX_APP_RIGHT)
        if not ref_is_pure_value(t.fun):
            sub = ref_find(t.fun)
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
        if not ref_is_pure_value(t.scrutinee):
            sub = ref_find(t.scrutinee)
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
        if not ref_is_pure_value(t.scrutinee):
            sub = ref_find(t.scrutinee)
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


def ref_step(d):
    finds = [ref_find(t) for t, _ in d.entries]
    picked = next((f for f in finds if isinstance(f, _Redex)), None)
    if picked is None:
        for f in finds:
            if isinstance(f, Stuck):
                return f
        return NormalForm(d)

    group = [
        i
        for i, f in enumerate(finds)
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


def ref_evaluate(d):
    max_steps = get_settings().max_steps
    trace = Trace()
    current = d
    for used in range(max_steps):
        res = ref_step(current)
        if isinstance(res, Reduced):
            trace.steps.append((res.dist, res.rule))
            current = res.dist
            continue
        trace.final = res
        trace.fuel_used = used
        return trace
    res = ref_step(current)
    if isinstance(res, Reduced):
        trace.final = Stuck(f"fuel exhausted after {max_steps} steps", None)
    else:
        trace.final = res
    trace.fuel_used = max_steps
    return trace


# ---------------------------------------------------------------------------
# Comparison.


def struct(x, memo):
    """Every field of a term, names and annotations included, with each
    coefficient as the hex of its two floats."""
    k = memo.get(id(x))
    if k is not None:
        return k
    if isinstance(x, complex):
        k = (x.real.hex(), x.imag.hex())
    elif isinstance(x, tuple):
        k = tuple(struct(y, memo) for y in x)
    elif dataclasses.is_dataclass(x):
        k = (type(x).__name__,) + tuple(
            struct(getattr(x, f.name), memo) for f in dataclasses.fields(x)
        )
    else:
        k = x
    memo[id(x)] = k
    return k


def _positions(d) -> dict[int, int]:
    """The index of each entry of d, by the identity of its term."""
    return {id(t): i for i, (t, _) in enumerate(d.entries)}


def assert_same_trace(new: Trace, ref: Trace, d) -> None:
    memo: dict = {}
    assert [r for _, r in new.steps] == [r for _, r in ref.steps]
    prev_new = prev_ref = _positions(d)
    for (dn, _), (dr, _) in zip(new.steps, ref.steps):
        assert len(dn) == len(dr)
        for (t, c), (u, e) in zip(dn.entries, dr.entries):
            assert (c.real.hex(), c.imag.hex()) == (e.real.hex(), e.imag.hex())
            assert struct(t, memo) == struct(u, memo)
            # a summand kept from the previous step is the same object
            assert prev_new.get(id(t), -1) == prev_ref.get(id(u), -1)
        prev_new, prev_ref = _positions(dn), _positions(dr)
    assert type(new.final) is type(ref.final)
    assert new.fuel_used == ref.fuel_used
    if isinstance(new.final, Stuck):
        assert new.final.reason == ref.final.reason
        assert struct(new.final.offending, memo) == struct(
            ref.final.offending, memo
        )
    else:
        # a normal form is the last step's distribution, or d itself
        assert new.final.dist is (new.steps[-1][0] if new.steps else d)
        assert ref.final.dist is (ref.steps[-1][0] if ref.steps else d)


def check(d) -> Trace:
    # the reference first, so that it meets every node uncached
    ref = ref_evaluate(d)
    new = evaluate(d)
    assert_same_trace(new, ref, d)
    return new


# ---------------------------------------------------------------------------
# Inputs.

PROGRAMS = load_corpus()
GATES = PROGRAMS["gates"].defs

# perfbench's `wide` schedule: (wires, gates per wire, items), one Hd per
# wire at place w % length, the other gates NOT or Z.
WIDE_SCHEDULE = ((4, 3, 12), (5, 2, 12), (6, 1, 6), (7, 1, 1))


def wide_terms(seed: int):
    """The `wide` circuits, built as the benchmark builds them."""
    rng = random.Random(f"wide:{seed}")
    terms = []
    for n, length, count in WIDE_SCHEDULE:
        for _ in range(count):
            chains = []
            for w in range(n):
                gates = [rng.choice(("NOT", "Z")) for _ in range(length - 1)]
                gates.insert(w % length, "Hd")
                d = single(Ket(rng.randrange(2)))
                for g in gates:
                    d = mk_app(GATES[g], d)
                chains.append(d)
            term = chains[-1]
            for d in reversed(chains[:-1]):
                term = mk_pair(d, term)
            terms.append(term)
    return terms


def test_wide_circuits():
    for term in wide_terms(3):  # the benchmark's seed
        trace = check(term)
        assert isinstance(trace.final, NormalForm)


# perfbench's `deep` schedule: (depth, items), Hd at every fourth place
# from the first, the other gates NOT or Z.
DEEP_SCHEDULE = ((12, 8), (16, 8), (20, 8), (24, 8), (28, 8))


def deep_terms(seed: int):
    """The `deep` gate chains, drawn as the benchmark draws them."""
    rng = random.Random(f"deep:{seed}")
    terms = []
    for depth, count in DEEP_SCHEDULE:
        for _ in range(count):
            d = single(Ket(rng.randrange(2)))
            for i in range(depth):
                g = "Hd" if i % 4 == 0 else rng.choice(("NOT", "Z"))
                d = mk_app(GATES[g], d)
            terms.append(d)
    return terms


@pytest.mark.parametrize("seed", [0, 3])  # the benchmark's seeds
def test_deep_chains(seed):
    for term in deep_terms(seed):
        trace = check(term)
        assert isinstance(trace.final, NormalForm)


# A value lands in a frame, and the search resumed there moves on: to a
# sibling, to the node that now holds a redex, or to a stuck position.
RESUMED = [
    # a pair's left side finishes while its right side still reduces
    "(NOT |0>, Z (NOT |1>))",
    "(NOT |0>, Hd |1>) + (Z |1>, |0>)",
    # an argument finishes, and then the function reduces
    r"((\x:B. \y:B. (x, y)) (NOT |0>)) (Hd |1>)",
    # a let or case scrutinee becomes a value: the redex is its node
    "let (a:B, b:B) = (NOT |0>, Hd |1>) in (b, a)",
    "(|0>, let (a:B, b:B) = (NOT |0>, |1>) in (b, a))",
    "NOT (case NOT |0> of { |0> -> |1> | |1> -> |0> })",
    "Hd (case Hd |0> of { |+> -> |1> | |-> -> |0> })",
    # a sibling stuck on a free variable
    "(NOT |0>, f |1>)",
    "(Hd |0>, case y of { |0> -> |1> | |1> -> |0> })",
]


@pytest.mark.parametrize("src", RESUMED)
def test_search_resumed_at_the_plug(src):
    check(parse_term(src, defs=GATES))


# A `Case` frame is validated again at each plug, under the current eps.
CASE_FRAME = (
    r"(|1>, case ((\x:B. x) |0>) of { |0> -> |0> | 1.0005*|1> -> |1> })"
)


def test_case_frame_revalidated_under_the_current_eps():
    with local_settings(eps=1e-3):
        d = parse_term(CASE_FRAME)
        check(d)  # the eps it was built under
    for evaluation in (ref_evaluate, evaluate):
        with pytest.raises(ValueError, match="case patterns must have norm 1"):
            evaluation(d)
    with local_settings(eps=1e-2):  # a looser eps accepts the patterns
        check(d)


def test_plug_gives_what_build_and_a_fresh_search_give(monkeypatch):
    # `_plug` hands back its wrapped entries without `_build`, and stores
    # each new summand's redex found by a search resumed at the plug
    plug = reduction._plug
    plugs = resumed = 0

    def pinned(r, fired):
        nonlocal plugs, resumed
        out = plug(r, fired)
        if not r.frames:  # a root fire hands back fired itself
            assert out is fired
            return out
        plugs += 1
        built = core._build(out.entries)
        assert [t for t, _ in built.entries] == [t for t, _ in out.entries]
        for (t, c), (u, e) in zip(out.entries, built.entries):
            assert t is u and struct(c, {}) == struct(e, {})
        eps = get_settings().eps if len(out) > 1 else None
        assert out.__dict__.get("_eps") == eps  # as `_build` stamps it
        for t, _ in out.entries:
            stored = t.__dict__.get("_found")
            if stored is None:
                assert core.is_pure_value(t)
                continue
            resumed += 1
            fresh = reduction._search(t)
            assert type(stored) is type(fresh)
            if isinstance(fresh, Stuck):
                assert stored.reason == fresh.reason
                assert stored.offending is fresh.offending
                continue
            assert stored.slot is fresh.slot and stored.rule is fresh.rule
            assert [r for _, r in stored.frames] == [
                r for _, r in fresh.frames
            ]
            for f, g in zip(
                [f for f, _ in stored.frames] + [stored.redex_repr],
                [g for g, _ in fresh.frames] + [fresh.redex_repr],
            ):
                assert type(f) is type(g)
                for field in dataclasses.fields(f):
                    assert getattr(f, field.name) is getattr(g, field.name)
        return out

    monkeypatch.setattr(reduction, "_plug", pinned)
    for d in deep_terms(0) + deep_terms(3):
        evaluate(d)
    for src in RESUMED:
        evaluate(parse_term(src, defs=GATES))
    with local_settings(eps=1e-3):  # through a `Case` frame
        evaluate(parse_term(CASE_FRAME))
    assert plugs > 1000 and resumed > 1000


# ---------------------------------------------------------------------------
# The table of contractions that `evaluate` keeps (see `reduction.step`).


@pytest.mark.parametrize("seed", [0, 3])
def test_each_contraction_fires_once_per_evaluation(monkeypatch, seed):
    # a product circuit fires the same gate on the same wire value in
    # every branch of the superposition; the table substitutes it once
    keys = []

    def counted(r, value):
        keys.append(_fire_key(r.redex_repr, value) if r.frames else None)
        return _fire(r, value)

    monkeypatch.setattr(reduction, "_fire", counted)
    fires = steps = 0
    for term in wide_terms(seed):
        keys.clear()
        trace = evaluate(term)
        assert isinstance(trace.final, NormalForm)
        tabled = [k for k in keys if k is not None]
        assert len(set(tabled)) == len(tabled)
        fires += len(keys)
        steps += len(trace.steps)
    assert fires < steps


def test_table_keys_coefficients_bit_for_bit():
    # 0.0 == -0.0, so a key on the complex would merge values that differ
    # only in the sign of a zero part; the identity fires keep that sign
    ident = Lam("x", ABS, single(Var("x")))
    t = Pair(Ket(1), App(ident, Ket(0)))  # fires below the root
    node = reduction._find(t).redex_repr
    for zeros in ((complex(1, -0.0), 1 + 0j), (complex(-1, -0.0), -1 + 0j)):
        values = [TermDist(((Ket(0), c),)) for c in zeros]
        assert len({_fire_key(node, v) for v in values}) == 2
    # through step, whose value is c * (1+0j): the second pair survives it
    dists = [TermDist(((t, c),)) for c in (complex(-1, -0.0), -1 + 0j)]
    fires: dict = {}
    tabled = [step(d, fires) for d in dists]
    assert len(fires) == 2
    bits = []
    for got, d in zip(tabled, dists):
        fresh = step(d)  # a throwaway table
        memo: dict = {}
        bits.append(struct(got.dist.entries, memo))
        assert bits[-1] == struct(fresh.dist.entries, memo)
    assert bits[0] != bits[1]


def test_root_fire_never_hands_back_a_previous_summand():
    # omega fires at the root on the same value at every step: a tabled
    # root fire would return the previous step's distribution, whose
    # summand `_plug` does not wrap in new nodes
    omega = mk_lam("x", ABS, mk_app(single(Var("x")), single(Var("x"))))
    d = mk_app(omega, omega)
    with local_settings(max_steps=5):
        trace = check(d)
    dists = [d] + [dist for dist, _ in trace.steps]
    assert len(dists) == 6
    for prev, cur in zip(dists, dists[1:]):
        assert not {id(t) for t, _ in prev} & {id(t) for t, _ in cur}


def test_generated_terms_and_shuffles():
    rng = np.random.default_rng(5)
    reduced = 0
    for _ in range(40):
        d, _, _ = gen.closed_term(rng)
        reduced += len(check(d).steps) > 0
        check(gen.shuffled(rng, d))
    assert reduced > 30


def test_corpus_definitions_and_cases():
    for prog in PROGRAMS.values():
        for d in prog.defs.values():
            check(d)
    for pname, src, _, _ in EVAL_CASES:
        trace = check(parse_term(src, defs=PROGRAMS[pname].defs))
        assert trace.steps


K0, K1 = single(Ket(0)), single(Ket(1))


@pytest.mark.parametrize(
    "src",
    [
        "NOT |0> + |1>",  # the fired summand merges with a kept one
        "NOT |0> - |1>",  # ... and cancels it
        "NOT |0> + Z |1> + |1>",  # two redexes, each fired alone
        "(1/2)*NOT |0> + (1/2)*NOT |0> + Hd |1>",
        "(NOT |0>, Hd |1>) + (NOT |0>, |1>)",  # one context, one fire
        "Hd (Hd |0>) - (1/sqrt2)*Hd |+>",
    ],
)
def test_merges_with_kept_summands(src):
    check(parse_term(src, defs=GATES))


def test_fired_summand_joins_two_kept_ones():
    # term_eq within eps is not transitive: the fired lambda is within
    # eps of both kept ones, which are not within eps of each other
    eps = get_settings().eps

    def lam(off):
        return mk_lam("x", STD, scale(1 + off * eps, single(Var("x"))))

    ident = mk_lam("f", ABS, single(Var("f")))
    d = add(
        mk_app(ident, lam(0.75)), scale(0.25, lam(0)), scale(0.5, lam(1.5))
    )
    assert len(d) == 3
    final = check(d).final.dist
    assert len(final) == 1
    assert final.entries[0][1] == 1.75


def test_stuck_results():
    lam = mk_lam("x", STD, single(Var("x")))
    for d in (
        add(mk_app(single(Var("f")), K0), mk_app(GATES["NOT"], K0)),
        add(mk_app(K0, K1), K1),
        mk_pair(mk_app(GATES["Hd"], K0), mk_app(lam, lam)),
        parse_term("NOT |0> + case |1> of { |0> -> |0> }", defs=GATES),
    ):
        trace = check(d)
        assert isinstance(trace.final, Stuck)


def test_fuel_exhaustion():
    omega = mk_lam("x", ABS, mk_app(single(Var("x")), single(Var("x"))))
    d = add(mk_app(omega, omega), mk_app(GATES["Hd"], K1))
    with local_settings(max_steps=12):
        trace = check(d)
    assert trace.final.reason == "fuel exhausted after 12 steps"


# ---------------------------------------------------------------------------
# A distribution built under one eps and evaluated under another: the
# summands that do not fire are pruned and merged under the current eps,
# as a rebuild would.


def test_stale_tolerance_prunes_kept_summand():
    d = add(mk_app(GATES["NOT"], K0), scale(1e-6, K0))  # default eps
    assert len(d) == 2
    with local_settings(eps=1e-3):
        trace = check(d)
    assert trace.steps[0][1] is RuleTag.CTX_SUM
    final = trace.final.dist
    assert len(final) == 1
    assert isinstance(final.entries[0][0], Ket)
    assert final.entries[0][0].bit == 1


def test_stale_tolerance_merges_kept_lambdas():
    body = single(Var("x"))
    near = scale(1 + 1e-5, body)
    d = add(
        mk_app(GATES["NOT"], K0),
        scale(0.5, mk_lam("x", STD, body)),
        scale(0.5, mk_lam("x", STD, near)),
    )
    assert len(d) == 3  # distinct lambdas under the default eps
    with local_settings(eps=1e-3):
        trace = check(d)
    final = trace.final.dist
    assert len(final) == 2
    lam, c = next((t, c) for t, c in final.entries if isinstance(t, Lam))
    assert lam.body is body and c == 1


# ---------------------------------------------------------------------------
# The one intended difference: a step rebuilds only the path from the
# redex to the root, so a `Case` beside that path is not validated again.
# Built under eps=1e-3 and evaluated under the default eps, the case's
# second pattern no longer has norm 1.  The reference rebuilt the
# sibling through mk_case and raised; a lone `Case` redex is never
# validated again, at the reference either.


def test_stale_case_sibling_is_kept_as_built():
    src = r"((\x:B. x) |0>, case |0> of { |0> -> |0> | 1.0005*|1> -> |1> })"
    with local_settings(eps=1e-3):
        d = parse_term(src)
    with pytest.raises(ValueError, match="case patterns must have norm 1"):
        ref_evaluate(d)
    trace = evaluate(d)
    assert [r for _, r in trace.steps] == [
        RuleTag.CTX_PAIR_LEFT,
        RuleTag.CTX_PAIR_RIGHT,
    ]
    case = d.entries[0][0].right
    first = trace.steps[0][0]
    assert first.entries[0][0].right is case  # the sibling, not a copy
    final = trace.final.dist
    assert len(final) == 1 and final.entries[0][1] == 1
    assert struct(final.entries[0][0], {}) == struct(Pair(Ket(0), Ket(0)), {})


# ---------------------------------------------------------------------------
# term_eq stops at a shared node only under the same binders.


def test_shared_body_under_other_binders_is_compared():
    body = single(Var("x"))
    # x is bound on the left and free on the right
    assert not term_eq(Lam("x", STD, body), Lam("y", STD, body))
    assert term_eq(Lam("x", STD, body), Lam("x", STD, body))


def test_term_eq_is_reflexive_on_generated_terms():
    rng = np.random.default_rng(11)
    for _ in range(40):
        d, _, _ = gen.closed_term(rng)
        for t, _ in d.entries:
            assert term_eq(t, t)
