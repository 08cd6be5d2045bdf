"""Acceptance gate.

Each test function is one acceptance criterion, so ``pytest -v`` prints
one pass/fail line per criterion.  Expected values come from the
independent state-vector oracles in ``oracles.py``; tolerances and time
budgets are asserted inside each criterion.
"""

import time

import numpy as np
import pytest

import gen
import oracles
from basislam.basis import (
    HAD,
    STD,
    decompose,
    from_vector,
    lookup_basis,
    product_basis,
)
from basislam.checker import (
    Binding,
    check,
    subject_reduction_harness,
    uses_sharp_binding,
)
from basislam.cli import main
from basislam.core import (
    add,
    dist_eq,
    inner_product,
    mk_app,
    mk_pair,
    norm,
    scale,
    sub,
)
from basislam.corpus import EVAL_CASES, corpus_program
from basislam.reduction import NormalForm, evaluate
from basislam.subst import subst_basis
from basislam.syntax import parse_term, parse_type
from basislam.typesem import BasisType, Sharp, is_member, type_eq
from basislam.unitary import check_unitary, uncurry2

# oracle name -> oracle truth table (f0, f1) and the answer wire value
ORACLE_TABLES = {
    "OX_const0": (0, 0),
    "OX_const1": (1, 1),
    "OX_id": (0, 1),
    "OX_flip": (1, 0),
}


def test_01_oracle_distinction_evaluates_deterministically(deutsch_prog):
    """Each of the four two-point functions is classified by a single
    evaluation, with the answer ket exact to 1e-8 up to global phase and
    matching the state-vector circuit oracle; under 1s per oracle."""
    for name, (f0, f1) in ORACLE_TABLES.items():
        expected_bit = oracles.deutsch_answer(f0, f1)
        start = time.perf_counter()
        trace = evaluate(
            mk_app(deutsch_prog.defs["Deutsch"], deutsch_prog.defs[name])
        )
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"{name}: {elapsed:.3f}s"
        assert isinstance(trace.final, NormalForm), name
        vec = oracles.dist_vector(trace.final.dist, 1)
        assert abs(abs(vec[expected_bit]) - 1.0) < 1e-8, name
        assert abs(vec[1 - expected_bit]) < 1e-8, name
        # independent circuit simulation agrees
        wire = oracles.first_wire(oracles.deutsch_state(f0, f1))
        assert int(np.argmax(np.abs(wire))) == expected_bit
        assert abs(abs(wire[expected_bit]) - 1.0) < 1e-8


def test_02_oracle_discrimination_typing(deutsch_prog):
    """The plain-basis discriminator types without ever binding a
    span-typed variable; the span-basis variant types at its sharp
    signature; under 5s each."""
    bases = deutsch_prog.all_bases()

    start = time.perf_counter()
    deriv = check(
        {},
        deutsch_prog.defs["Deutsch"],
        parse_type("([X] -> [X] -> [X] * [X]) -> [B]", bases),
    )
    assert time.perf_counter() - start < 5.0
    assert uses_sharp_binding(deriv) is False

    start = time.perf_counter()
    check(
        {},
        deutsch_prog.defs["DeutschStd"],
        parse_type("(#[B] -> #[B] -> #[B] * #[B]) -> #([B] * [B])", bases),
    )
    assert time.perf_counter() - start < 5.0


def test_03_teleportation(teleport_prog):
    """Twenty random unit states come out as the uniform mixture of
    entangled-basis tags paired with the input, each coefficient within
    1e-7 of the deferred-measurement simulation; the protocol types at
    its sharp signature; under 5s total."""
    rng = np.random.default_rng(2026)
    teleport = teleport_prog.defs["Teleport"]
    start = time.perf_counter()
    for _ in range(20):
        psi_vec = oracles.random_unit(1, rng)
        psi = from_vector(psi_vec, 1)
        trace = evaluate(mk_app(teleport, psi))
        assert isinstance(trace.final, NormalForm)
        got = oracles.dist_vector(trace.final.dist, 3)
        want = oracles.teleport_expected(psi_vec)
        assert np.allclose(got, want, atol=1e-7)
        # the protocol's own circuit (corrections deferred) agrees
        assert np.allclose(
            oracles.teleport_state(psi_vec), want, atol=1e-12
        )
    check(
        {},
        teleport,
        parse_type("#[B] -> #[Bell] * #[B]", teleport_prog.all_bases()),
    )
    assert time.perf_counter() - start < 5.0


def test_04_unitarity_verdicts(gates_prog):
    """The gate set is certified unitary at tolerance 1e-6, the cloning
    case-term is rejected with an inner-product witness, and every
    verdict agrees with semantic membership at the sharp arrow."""
    defs = gates_prog.defs
    positives = [
        (defs["Hd"], "#[B] -> #[B]"),
        (defs["NOT"], "#[B] -> #[B]"),
        (defs["Z"], "#[B] -> #[B]"),
        (defs["ZX"], "#[X] -> #[X]"),
        (defs["XX"], "#[X] -> #[X]"),
        (uncurry2(defs["CNOT"], STD, STD), "#([B] * [B]) -> #([B] * [B])"),
        (uncurry2(defs["CNOTX"], HAD, HAD), "#([X] * [X]) -> #([X] * [X])"),
    ]
    for f, ty in positives:
        report = check_unitary(f)
        assert report.unitary, ty
        assert report.deviation <= 1e-6
        assert is_member(f, parse_type(ty)) is True

    report = check_unitary(defs["Cloner"])
    assert not report.unitary
    assert report.label == "not unitary"
    i, j, g = report.witness
    assert (i, j) == (0, 1)
    assert g == pytest.approx(1.0 + 0.0j)
    assert report.deviation == pytest.approx(1.0)
    assert is_member(defs["Cloner"], parse_type("#[B] -> #[B]")) is False
    assert report.unitary == is_member(
        defs["Cloner"], parse_type("#[B] -> #[B]")
    )


def test_05_algebraic_property_suites(gates_prog):
    """Randomized desk-scale suites: decomposition round trips, linear
    substitution, reassembly confluence, span membership laws, pair
    factorization with the polarization identity, step-by-step
    re-checking of the corpus, and the substitution lemma; under 60s."""
    rng = np.random.default_rng(99)
    suite_start = time.perf_counter()

    # --- decompose/recompose residual < 1e-8, shuffle invariance ------
    bell = lookup_basis("Bell")
    frames = [
        (1, STD),
        (1, HAD),
        (2, product_basis(STD, STD)),
        (2, bell),
    ]
    for k in range(1000):
        n, basis = frames[k % 4]
        v = gen.random_state(rng, n)
        coords = decompose(v, basis)
        assert coords is not None
        recon = add(
            *(scale(c, e) for c, e in zip(coords, basis.elements))
        )
        assert norm(sub(v, recon)) < 1e-8
        assert dist_eq(gen.shuffled(rng, v), v)

    # --- substitution is linear and respects sum formation ------------
    templates = [
        parse_term(src, defs=gates_prog.defs)
        for src in (
            "(x, |0>)",
            "NOT x",
            "case x of { |0> -> |+> | |1> -> |-> }",
            "(Hd x, |1>)",
        )
    ]
    for k in range(1000):
        tpl = templates[k % len(templates)]
        u = gen.random_state(rng, 1)
        w = gen.random_state(rng, 1)
        a = complex(rng.normal(), rng.normal())
        b = complex(rng.normal(), rng.normal())
        v = add(scale(a, u), scale(b, w))
        lhs = subst_basis(tpl, "x", v, STD)
        rhs = add(
            scale(a, subst_basis(tpl, "x", u, STD)),
            scale(b, subst_basis(tpl, "x", w, STD)),
        )
        assert dist_eq(lhs, rhs)
        other = templates[(k + 1) % len(templates)]
        mixed = add(scale(a, tpl), scale(b, other))
        assert dist_eq(
            subst_basis(mixed, "x", u, STD),
            add(
                scale(a, subst_basis(tpl, "x", u, STD)),
                scale(b, subst_basis(other, "x", u, STD)),
            ),
        )

    # --- reassembling a distribution never changes its normal form ----
    for _ in range(200):
        d, _, _ = gen.closed_term(rng)
        left = evaluate(d)
        right = evaluate(gen.shuffled(rng, d))
        assert isinstance(left.final, NormalForm)
        assert isinstance(right.final, NormalForm)
        assert dist_eq(left.final.dist, right.final.dist)

    # --- span membership: characterization, idempotence, unit norm ----
    sharp_b = parse_type("#[B]")
    sharp_bell = parse_type("#[Bell]", {"Bell": bell})
    bell_vecs = [oracles.dist_vector(e, 2) for e in bell.elements]
    for k in range(1000):
        v = gen.random_state(rng, 1)
        assert is_member(v, sharp_b)
        theta = rng.uniform(0, 2 * np.pi)
        assert is_member(scale(np.exp(1j * theta), v), sharp_b)
        r = rng.uniform(0.2, 1.8)
        if abs(r - 1.0) < 0.05:
            r += 0.1
        assert is_member(scale(r, v), sharp_b) is False
        doubled = Sharp(Sharp(BasisType(STD)))
        assert not isinstance(doubled.inner, Sharp)
        assert type_eq(doubled, Sharp(BasisType(STD)))
        assert is_member(v, Sharp(Sharp(BasisType(STD)))) == is_member(
            v, sharp_b
        )
        if k % 2 == 0:
            w = gen.random_state(rng, 2)
            assert is_member(w, sharp_b) is False
            assert oracles.in_span_lstsq(
                oracles.dist_vector(w, 2), bell_vecs
            )
            assert is_member(w, sharp_bell)

    # --- pair factorization and the polarization identity -------------
    prod_ss = parse_type("#[B] * #[B]")
    for k in range(1000):
        if k % 2 == 0:
            v = mk_pair(gen.random_state(rng, 1), gen.random_state(rng, 1))
        else:
            v = gen.random_state(rng, 2)
        mat = oracles.dist_vector(v, 2).reshape(2, 2)
        rank_one = bool(
            np.linalg.svd(mat, compute_uv=False)[1] < 1e-8
        )
        assert is_member(v, prod_ss) == rank_one
        u2 = gen.random_state(rng, 2)
        w2 = gen.random_state(rng, 2)
        recovered = 0.25 * sum(
            (1j) ** (-m) * norm(add(u2, scale((1j) ** m, w2))) ** 2
            for m in range(4)
        )
        assert abs(recovered - inner_product(u2, w2)) < 1e-8

    # --- every corpus judgement re-checks at every reduction step -----
    for prog_name, term_src, _expected, ty_src in EVAL_CASES:
        prog = corpus_program(prog_name)
        bases = prog.all_bases()
        term = parse_term(term_src, bases, prog.defs)
        report = subject_reduction_harness(
            {}, term, parse_type(ty_src, bases)
        )
        assert report.ok, (prog_name, term_src, report.failure)
    for prog_name in ("gates", "deutsch", "teleport"):
        prog = corpus_program(prog_name)
        for goal in prog.goals:
            report = subject_reduction_harness(
                {}, prog.defs[goal.name], goal.type
            )
            assert report.ok, (prog_name, goal.name)

    # --- substitution preserves the judgement --------------------------
    plain_rows = [
        ("(x, |0>)", "[B] * [B]"),
        ("NOT x", "[B]"),
        ("case x of { |0> -> |1> | |1> -> |0> }", "[B]"),
        ("Hd x", "[X]"),
        ("let (y:B, z:B) = (x, |1>) in (z, y)", "[B] * [B]"),
    ]
    sharp_rows = [
        ("NOT x", "#[B]"),
        ("Hd x", "#[X]"),
        ("CNOT x |0>", "#([B] * [B])"),
        ("case x of { |0> -> |+> | |1> -> |-> }", "#[X]"),
    ]
    for k in range(100):
        if k % 2 == 0:
            src, ty = plain_rows[(k // 2) % len(plain_rows)]
            binding, values = "[B]", [
                parse_term("|0>"),
                parse_term("|1>"),
            ]
        else:
            src, ty = sharp_rows[(k // 2) % len(sharp_rows)]
            binding, values = "#[B]", [gen.random_state(rng, 1)]
        term = parse_term(src, defs=gates_prog.defs)
        goal = parse_type(ty)
        ctx = {"x": Binding(parse_type(binding), STD)}
        check(ctx, term, goal)
        for v in values:
            closed = subst_basis(term, "x", v, STD)
            check({}, closed, goal)

    assert time.perf_counter() - suite_start < 60.0


def test_06_designated_failures(capsys):
    """The four canonical rejections each fail with their designated
    diagnostic and exit code 1."""
    cases = [
        (
            ["eval", r"(\x:X. x) (\y:B. y)"],
            "argument not in annotation span",
        ),
        (
            ["eval", "case |00> of { |0> -> |0> | |1> -> |1> }"],
            "case scrutinee outside pattern span",
        ),
        (
            ["check", r"\x:B. |0>", "#[B] -> [B]"],
            "linear variable dropped: x",
        ),
        (
            ["check", r"(\x:B. x) |0>", "[X]"],
            "subtype check failed [B] ≤ [X]",
        ),
    ]
    for argv, needle in cases:
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 1, argv
        assert needle in out, (argv, out)
