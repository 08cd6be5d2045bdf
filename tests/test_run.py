"""The answer-only reduction against the recorded one.

`reduction.run` reduces by `evaluate`'s steps but drops each step once
the next exists, and it reduces under a stack of frames that every
summand shares rather than plugging what fired back into the whole
distribution.  So it must end in `evaluate`'s final result after the
same number of steps: the same normal form, coefficients bit for bit,
or the same stuck reason and offending term.  It must also hold less:
its memory is one step's, where a trace holds all of them; and it must
build less: a gate chain costs a few nodes a step, not a rebuilt path.
"""

import random
import tracemalloc

import numpy as np
import pytest

import gen
from basislam import core, reduction
from basislam.core import (
    Ket,
    TermDist,
    local_settings,
    mk_app,
    mk_pair,
    session,
    single,
)
from basislam.corpus import EVAL_CASES
from basislam.reduction import NormalForm, Outcome, Stuck, evaluate, run
from basislam.syntax import parse_term
from test_step import (
    CASE_FRAME,
    GATES,
    PROGRAMS,
    assert_same_final,
    deep_terms,
    wide_terms,
)


def check(d) -> Outcome:
    outcome = run(d)
    assert_same_final(outcome.final, outcome.fuel_used, evaluate(d))
    return outcome


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("terms", [wide_terms, deep_terms], ids=["wide", "deep"])
def test_benchmark_items(terms, seed):
    for term in terms(seed):
        assert isinstance(check(term).final, NormalForm)


def gate_chain(depth: int):
    """depth gates on a ket, drawn as the `deep` chains are: Hd at every
    fourth place from the first, NOT or Z elsewhere."""
    rng = random.Random(f"chain:{depth}")
    d = single(Ket(rng.randrange(2)))
    for i in range(depth):
        d = mk_app(GATES["Hd" if i % 4 == 0 else rng.choice(("NOT", "Z"))], d)
    return d


@pytest.mark.parametrize("depth", [100, 200])
def test_long_chains(depth):
    outcome = check(gate_chain(depth))
    assert isinstance(outcome.final, NormalForm)
    assert outcome.fuel_used == 2 * depth  # a beta and a case match a gate


def test_generated_terms_and_shuffles():
    rng = np.random.default_rng(7)
    for _ in range(40):
        d, _, _ = gen.closed_term(rng)
        check(d)
        check(gen.shuffled(rng, d))


def test_corpus_cases():
    for pname, src, _, _ in EVAL_CASES:
        check(parse_term(src, defs=PROGRAMS[pname].defs))


# the overflow of tests/test_cli.py: Z*Z applied twice
Z = "1" + "0" * 300


@pytest.mark.parametrize(
    "src, reason",
    [
        ("(NOT |0>, f |1>)", "free variable"),
        # |1> is outside the span of the annotation {|0>}
        (r"NOT ((\x:{|0>}. x) |1>)", "argument not in annotation span"),
        (rf"(\x:B. {Z}*x) ((\x:B. {Z}*x) |0>)", "coefficient is not finite"),
        # the same, each met by a summand under a stack of frames: the
        # first beta fires under the gates, and what it fires to sticks
        (r"NOT (Z ((\x:B. f x) |+>))", "free variable"),
        (
            r"NOT (Z ((\x:B. (\y:{|0>}. y) x) |1>))",
            "argument not in annotation span",
        ),
        (
            rf"NOT ((\x:B. {Z}*x) ((\x:B. {Z}*x) |0>))",
            "coefficient is not finite",
        ),
    ],
    ids=[
        "free-variable",
        "outside-span",
        "not-finite",
        "free-variable-under-a-stack",
        "outside-span-under-a-stack",
        "not-finite-under-a-stack",
    ],
)
def test_stuck(src, reason):
    final = check(parse_term(src, defs=GATES)).final
    assert isinstance(final, Stuck) and final.reason == reason


@pytest.mark.parametrize(
    "src",
    [
        # the fired body mixes a value with a redex under the NOT frame
        r"NOT ((\x:B. (1/sqrt2)*x + (1/sqrt2)*Z x) |0>)",
        # the fired body holds two redexes that do not fire together
        r"NOT ((\x:B. (1/sqrt2)*Z x + (1/sqrt2)*Hd x) |0>)",
        # pair frames: the right side reduces under the stack, and the
        # left side's superposition is put back under the pair
        "(|0>, NOT (Z (Hd |1>)))",
        "(Hd (NOT |0>), NOT (Z |1>))",
        "(Hd (NOT |0>), Z (Hd |1>)) + (1/2)*(Hd (NOT |0>), |0>)",
        "let (a:B, b:B) = (Hd (NOT |0>), Z |1>) in (NOT b, a)",
    ],
)
def test_focus_put_back_under_the_stack(src):
    assert isinstance(check(parse_term(src, defs=GATES)).final, NormalForm)


def test_fuel_exhausted():
    d = parse_term("NOT (NOT (NOT (NOT |0>)))", defs=GATES)
    with local_settings(max_steps=3):
        outcome = check(d)
    assert outcome.final.reason == "fuel exhausted after 3 steps"
    assert outcome.fuel_used == 3


def fire_negative_zeros(monkeypatch) -> None:
    """Patch `_fire` to give a -0.0 imaginary part wherever it is zero.
    The factor 1+0j turns that part of a positive real coefficient into
    +0.0, and no contraction makes such a coefficient."""
    fire = reduction._fire

    def negative_zeros(r, value):
        fired = fire(r, value)
        if isinstance(fired, Stuck):
            return fired
        return TermDist(
            tuple(
                (t, complex(c.real, -0.0) if c.imag == 0 else c)
                for t, c in fired.entries
            )
        )

    monkeypatch.setattr(reduction, "_fire", negative_zeros)


def test_fired_zero_parts_take_the_frames_factor(monkeypatch):
    # the focus must carry the factor 1+0j as the plugged distribution does
    fire_negative_zeros(monkeypatch)
    for d in (gate_chain(8), mk_pair(single(Ket(1)), gate_chain(8))):
        assert isinstance(check(d).final, NormalForm)


def test_fuel_swept_over_a_focused_stretch():
    d = gate_chain(6)
    total = check(d).fuel_used
    for max_steps in range(total + 2):
        with local_settings(max_steps=max_steps):
            outcome = check(d)
        done = max_steps >= total
        assert isinstance(outcome.final, NormalForm if done else Stuck)


# the `Case` frame stays on the stack while the gates above the beta fire
CASE_STACK = (
    r"(|1>, case NOT (Z ((\x:B. x) |0>)) of"
    r" { |0> -> |0> | 1.0005*|1> -> |1> })"
)


@pytest.mark.parametrize("src", [CASE_FRAME, CASE_STACK])
def test_case_frame_validated_under_the_current_eps(src):
    with local_settings(eps=1e-3):
        d = parse_term(src, defs=GATES)
        check(d)  # the eps it was built under
    for evaluation in (evaluate, run):
        with pytest.raises(ValueError, match="case patterns must have norm 1"):
            evaluation(d)
    with local_settings(eps=1e-2):  # a looser eps accepts the patterns
        check(d)


def test_case_frame_validated_once_when_pushed(monkeypatch):
    # `evaluate` plugs each of the 40 fires back through the `Case` frame
    # and validates its patterns each time; `run` keeps the frame on its
    # stack and validated it once, when it was pushed
    d = core.mk_case(
        gate_chain(20),
        (single(Ket(0)), single(Ket(1))),
        (single(Ket(1)), single(Ket(0))),
    )
    calls = 0
    validate = reduction.validate_case_patterns

    def counted(patterns):
        nonlocal calls
        calls += 1
        validate(patterns)

    monkeypatch.setattr(reduction, "validate_case_patterns", counted)
    for evaluation, want in ((evaluate, 40), (run, 1)):
        calls = 0
        outcome = evaluation(d)
        assert isinstance(outcome.final, NormalForm)
        assert outcome.fuel_used == 41
        assert calls == want, evaluation.__name__


def test_gate_chain_builds_a_few_nodes_a_step(monkeypatch):
    # Plugging every fire back through the chain above it built 60,499
    # `App` nodes for the 400 steps of 200 gates.  Under a stack, a fire
    # at the top of the focus builds none; wrapping each value that
    # returns to a gate's frame in a new `App`, then searching that node
    # again, built 798 and searched 306 times.  A value that returns to a
    # gate now fires it in place: the 200 nodes are the frames of the
    # first search, and the other 6 searches start at the chain's
    # innermost redexes.
    d = gate_chain(200)
    built = searched = 0
    init, search = core.App.__init__, reduction._search

    def counted(self, fun, arg):
        nonlocal built
        built += 1
        init(self, fun, arg)

    def searching(*args):
        nonlocal searched
        searched += 1
        return search(*args)

    monkeypatch.setattr(core.App, "__init__", counted)
    monkeypatch.setattr(reduction, "_search", searching)
    outcome = run(d)
    assert isinstance(outcome.final, NormalForm)
    assert outcome.fuel_used == 400
    assert built <= 200 + 10
    assert searched <= 10


# ---------------------------------------------------------------------------
# The return transition: a focus of values that returns to a redex frame
# fires that frame in place (see `reduction._Focus._refocus`).  Each test
# compares `run` with `evaluate`, each in a session of its own, on the
# final result, the fuel used and the contractions tabled.

# Hd's |+> returns to Z's beta frame under NOT's, then Z's to NOT's at
# the root; NOT's and Hd's summands return to a case frame; Hd's pair
# returns to a let frame.  (rule, frames left below it) of each return.
RETURNS = [
    (
        "NOT (Z (Hd |0>))",
        [("Beta", 1), ("Beta", 0)],
    ),
    (
        "NOT (case Hd |0> of { |0> -> |1> | |1> -> |0> })",
        [("CaseMatch", 1), ("Beta", 0)],
    ),
    (
        r"NOT (let (a:B, b:B) = (Hd |0>, |1>) in a)",
        [("LetTensor", 1), ("Beta", 0)],
    ),
    (  # the pop empties the stack: a root fire, not tabled
        "case NOT |0> of { |0> -> |1> | |1> -> |0> }",
        [("CaseMatch", 0)],
    ),
    (  # case frames only, so no `Pair` or `App` frame's factor 1+0j
        "case (case Hd |1> of { |+> -> |0> | |-> -> |1> }) of"
        " { |0> -> |1> | |1> -> |0> }",
        [("CaseMatch", 1), ("CaseMatch", 0)],
    ),
]


def returned(monkeypatch) -> list:
    """The (rule, frames left) of each redex frame `run` fires on return,
    appended as it fires."""
    fired = []
    refocus = reduction._Focus._refocus

    def recorded(self):
        r = refocus(self)
        if r is not None:
            fired.append((str(r.rule), len(self.stack)))
        return r

    monkeypatch.setattr(reduction._Focus, "_refocus", recorded)
    return fired


def tabled(table) -> list:
    """Each contraction of table in the order tabled: its value's
    coefficient bits (the terms are each evaluation's own objects)."""
    return [tuple(bits for _, bits in value) for _, value in table.entries]


def check_tables(d) -> Outcome:
    with session() as ran:
        outcome = run(d)
    with session() as recorded:
        ref = evaluate(d)
    assert_same_final(outcome.final, outcome.fuel_used, ref)
    assert (ran.contractions.misses, ran.contractions.hits) == (
        recorded.contractions.misses,
        recorded.contractions.hits,
    )
    assert tabled(ran.contractions) == tabled(recorded.contractions)
    return outcome


@pytest.mark.parametrize("src, want", RETURNS)
def test_values_fire_the_frame_they_return_to(monkeypatch, src, want):
    fired = returned(monkeypatch)
    outcome = check_tables(parse_term(src, defs=GATES))
    assert isinstance(outcome.final, NormalForm)
    assert fired == want


def test_frame_fire_sticks_outside_the_annotation_span(monkeypatch):
    # -|1> returns to the beta frame of {|0>}, under NOT's
    fired = returned(monkeypatch)
    src = r"NOT ((\x:{|0>}. x) (Z |1>))"
    final = check_tables(parse_term(src, defs=GATES)).final
    assert isinstance(final, Stuck)
    assert final.reason == "argument not in annotation span"
    assert fired == [("Beta", 1)]


@pytest.mark.parametrize(
    "src",
    [
        r"NOT ((\x:B. |0> - |0>) |1>)",
        r"Hd (NOT (Z ((\x:B. x - x) |1>)))",
    ],
)
def test_zero_focus_never_fires(monkeypatch, src):
    # what fired cancels under the gates' frames: `evaluate` meets the
    # zero distribution as a normal form, with no step on it
    fired = returned(monkeypatch)
    outcome = check_tables(parse_term(src, defs=GATES))
    assert isinstance(outcome.final, NormalForm)
    assert not outcome.final.dist.entries
    assert outcome.fuel_used == 1
    assert fired == []


@pytest.mark.parametrize(
    "src",
    [
        r"NOT (case (\x:B. y) |0> of { |0> -> |1> | |1> -> |0> })",
        r"NOT (let (a:B, b:B) = (\x:B. y) |0> in a)",
        # a variable beside a ket: the ket's case fires alone
        r"NOT (case (\x:B. (1/sqrt2)*y + (1/sqrt2)*|0>) |0> of"
        r" { |0> -> |1> | |1> -> |0> })",
    ],
)
def test_variable_returned_to_a_case_or_let_frame(monkeypatch, src):
    fired = returned(monkeypatch)
    final = check_tables(parse_term(src, defs=GATES)).final
    assert isinstance(final, Stuck) and final.reason == "free variable"
    assert fired == []


# NOT's |1> returns to the beta frame of {|0>}, which sticks, with the
# `Case` frame and the pair's still below it
CASE_BELOW = (
    r"(|1>, case (\x:{|0>}. x) (NOT |0>) of"
    r" { |0> -> |0> | 1.0005*|1> -> |1> })"
)


def test_case_frame_below_a_frame_fire_validated(monkeypatch):
    fired = returned(monkeypatch)
    with local_settings(eps=1e-3):
        d = parse_term(CASE_BELOW, defs=GATES)
        final = check_tables(d).final  # the eps it was built under
    assert isinstance(final, Stuck)
    assert final.reason == "argument not in annotation span"
    assert fired == [("Beta", 2)]
    for evaluation in (evaluate, run):
        with pytest.raises(ValueError, match="case patterns must have norm 1"):
            evaluation(d)


@pytest.mark.parametrize(
    "src, want",
    [
        RETURNS[-1],
        # the pair's frame is still below NOT's when it fires on return
        ("(|1>, NOT (Z |0>))", [("Beta", 1)]),
    ],
)
def test_frame_fire_takes_the_factor(monkeypatch, src, want):
    # Under case frames alone no frame's factor 1+0j has reached the
    # focus: the value fired on return, tabled bit for bit, must carry
    # the factor that `combine` puts on its slots.  Under a pair frame,
    # what a frame fires to must carry the factor that `_plug` puts on
    fire_negative_zeros(monkeypatch)
    fired = returned(monkeypatch)
    check_tables(parse_term(src, defs=GATES))
    assert fired == want


@pytest.mark.parametrize("src", [src for src, _ in RETURNS[:3]])
def test_fuel_swept_over_frame_fires(src):
    d = parse_term(src, defs=GATES)
    total = check_tables(d).fuel_used
    for max_steps in range(total + 2):
        with local_settings(max_steps=max_steps):
            outcome = check_tables(d)
        done = max_steps >= total
        assert isinstance(outcome.final, NormalForm if done else Stuck)


def test_an_outcome_has_no_steps():
    # a Trace with empty steps would let len(trace.steps) read 0
    assert Outcome._fields == ("final", "fuel_used")


def hd_layer(n: int):
    """Hd |0> on each of n wires, right-nested: 2^(n+1) - 2 steps."""
    hd = mk_app(GATES["Hd"], single(Ket(0)))
    term = hd
    for _ in range(n - 1):
        term = mk_pair(hd, term)
    return term


def peak_bytes(reduce, d) -> int:
    tracemalloc.start()
    try:
        reduce(d)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_run_holds_one_step_not_the_trace():
    run(hd_layer(9))  # both measured with the body instances stored
    kept = peak_bytes(evaluate, hd_layer(9))
    dropped = peak_bytes(run, hd_layer(9))
    assert dropped < kept / 4
