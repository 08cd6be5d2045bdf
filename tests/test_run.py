"""The answer-only reduction against the recorded one.

`reduction.run` reduces by `evaluate`'s loop but drops each step once
the next exists, so it must end in `evaluate`'s final result after the
same number of steps: the same normal form, coefficients bit for bit,
or the same stuck reason and offending term.  It must also hold less:
its memory is one step's, where a trace holds all of them.
"""

import tracemalloc

import pytest

from basislam.core import Ket, local_settings, mk_app, mk_pair, single
from basislam.reduction import NormalForm, Outcome, Stuck, evaluate, run
from basislam.syntax import parse_term
from test_step import GATES, assert_same_final, deep_terms, wide_terms


def check(d) -> Outcome:
    outcome = run(d)
    assert_same_final(outcome.final, outcome.fuel_used, evaluate(d))
    return outcome


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("terms", [wide_terms, deep_terms], ids=["wide", "deep"])
def test_benchmark_items(terms, seed):
    for term in terms(seed):
        assert isinstance(check(term).final, NormalForm)


# the overflow of tests/test_cli.py: Z*Z applied twice
Z = "1" + "0" * 300


@pytest.mark.parametrize(
    "src, reason",
    [
        ("(NOT |0>, f |1>)", "free variable"),
        # |1> is outside the span of the annotation {|0>}
        (r"NOT ((\x:{|0>}. x) |1>)", "argument not in annotation span"),
        (rf"(\x:B. {Z}*x) ((\x:B. {Z}*x) |0>)", "coefficient is not finite"),
    ],
    ids=["free-variable", "outside-span", "not-finite"],
)
def test_stuck(src, reason):
    final = check(parse_term(src, defs=GATES)).final
    assert isinstance(final, Stuck) and final.reason == reason


def test_fuel_exhausted():
    d = parse_term("NOT (NOT (NOT (NOT |0>)))", defs=GATES)
    with local_settings(max_steps=3):
        outcome = check(d)
    assert outcome.final.reason == "fuel exhausted after 3 steps"
    assert outcome.fuel_used == 3


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
