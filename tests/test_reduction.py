import numpy as np
import pytest

import oracles
from basislam.basis import KET_MINUS, KET_PLUS, STD
from basislam.core import (
    ABS,
    Ket,
    Ortho,
    Var,
    dist_eq,
    local_settings,
    mk_app,
    mk_case,
    mk_lam,
    mk_letpair,
    mk_pair,
    scale,
    single,
)
from basislam.reduction import (
    NormalForm,
    Stuck,
    evaluate,
    evaluate_value,
    step,
)
from basislam.syntax import parse_term, print_term

K0 = single(Ket(0))
K1 = single(Ket(1))


def rules_of(trace):
    return [rule.value for _, rule in trace.steps]


class TestBasicSteps:
    def test_beta_then_case(self, gates_prog):
        d = parse_term("Hd |0>", defs=gates_prog.defs)
        trace = evaluate(d)
        assert rules_of(trace) == ["Beta", "CaseMatch"]
        assert isinstance(trace.final, NormalForm)
        assert dist_eq(trace.final.dist, KET_PLUS)
        assert trace.fuel_used == 2

    def test_case_is_linear_in_scrutinee(self, gates_prog):
        # the cloner demonstrates that evaluation itself has no norm
        # guard: case distributes linearly and the weight can grow
        d = parse_term("Cloner |+>", defs=gates_prog.defs)
        out = evaluate(d).final
        assert isinstance(out, NormalForm)
        assert dist_eq(out.dist, scale(np.sqrt(2.0), K0))

    def test_let_tensor(self):
        d = mk_letpair(
            "a", STD, "b", STD, mk_pair(K1, K0),
            mk_pair(single(Var("b")), single(Var("a"))),
        )
        trace = evaluate(d)
        assert "LetTensor" in rules_of(trace)
        assert dist_eq(trace.final.dist, mk_pair(K0, K1))

    def test_context_rules_fire_left_first(self, gates_prog):
        d = parse_term("(NOT |0>, NOT |1>)", defs=gates_prog.defs)
        trace = evaluate(d)
        tags = rules_of(trace)
        assert tags.index("CtxPairLeft") < tags.index("CtxPairRight")
        assert dist_eq(trace.final.dist, mk_pair(K1, K0))

    def test_app_argument_reduced_before_beta(self, gates_prog):
        d = parse_term("NOT (NOT |0>)", defs=gates_prog.defs)
        tags = rules_of(evaluate(d))
        assert tags[0] == "CtxAppRight"

    def test_superposition_contexts(self, deutsch_prog):
        d = parse_term("Deutsch OX_flip", defs=deutsch_prog.defs)
        trace = evaluate(d)
        assert "CtxSum" in rules_of(trace)
        assert dist_eq(trace.final.dist, scale(-1.0, K1))


class TestStuck:
    def test_argument_outside_annotation_span(self):
        lam = mk_lam("x", Ortho((K0,)), single(Var("x")))
        out = evaluate(mk_app(lam, K1)).final
        assert isinstance(out, Stuck)
        assert out.reason == "argument not in annotation span"
        assert print_term(single(out.offending)) == "(\\x:{|0>}. x) |1>"

    def test_x_lambda_applied_to_abstraction(self):
        from basislam.basis import HAD

        lam = mk_lam("x", HAD, single(Var("x")))
        arg = mk_lam("y", STD, single(Var("y")))
        out = evaluate(mk_app(lam, arg)).final
        assert isinstance(out, Stuck)
        assert out.reason == "argument not in annotation span"
        assert print_term(single(out.offending)) == "(\\x:X. x) (\\y:B. y)"

    def test_case_scrutinee_outside_pattern_span(self):
        d = mk_case(K1, (K0,), (K0,))
        out = evaluate(d).final
        assert isinstance(out, Stuck)
        assert out.reason == "case scrutinee outside pattern span"
        assert print_term(single(out.offending)) == (
            "case |1> of { |0> -> |0> }"
        )

    def test_free_variable_blocks_elimination(self):
        out = evaluate(mk_app(single(Var("f")), K0)).final
        assert isinstance(out, Stuck)
        assert out.reason == "free variable"
        d = mk_case(single(Var("z")), (K0,), (K0,))
        assert evaluate(d).final.reason == "free variable"

    def test_non_value_in_value_position(self):
        out = evaluate(mk_app(K0, K1)).final
        assert isinstance(out, Stuck)
        assert out.reason == "non-value in value position"

    def test_fuel_exhaustion(self):
        omega = mk_lam("x", ABS, mk_app(single(Var("x")), single(Var("x"))))
        with local_settings(max_steps=10):
            trace = evaluate(mk_app(omega, omega))
        assert isinstance(trace.final, Stuck)
        assert trace.final.reason == "fuel exhausted after 10 steps"
        assert trace.final.offending is None
        assert trace.fuel_used == 10


class TestLetAbstractSides:
    """Let-pair binders annotated @fun: an abstract side is substituted
    pure value by pure value, the other side through its basis."""

    @pytest.mark.parametrize(
        "src,expect",
        [
            (
                "let (x:@fun, y:@fun) = (|+>, |1>) in (y, x)",
                oracles.kron(oracles.KET1, oracles.PLUS),
            ),
            (
                "let (x:@fun, y:X) = (|+>, |->) in (y, x)",
                oracles.kron(oracles.MINUS, oracles.PLUS),
            ),
            (
                "let (x:X, y:@fun) = (|->, |+>) in (y, x)",
                oracles.kron(oracles.PLUS, oracles.MINUS),
            ),
            ("let (f:@fun, y:B) = (\\z:B. z, |1>) in f y", oracles.KET1),
        ],
    )
    def test_matches_state_vector(self, src, expect):
        trace = evaluate(parse_term(src))
        assert rules_of(trace)[0] == "LetTensor"
        assert isinstance(trace.final, NormalForm)
        wires = len(expect).bit_length() - 1
        got = oracles.dist_vector(trace.final.dist, wires)
        assert np.allclose(got, expect)

    def test_residual_outside_annotation_span(self):
        src = "let (x:@fun, y:{|0>}) = (|0>, |1>) in x"
        out = evaluate(parse_term(src)).final
        assert isinstance(out, Stuck)
        assert out.reason == "argument not in annotation span"
        assert print_term(single(out.offending)) == (
            "let (x:@fun, y:{|0>}) = |01> in x"
        )


class TestInterfaces:
    def test_values_are_normal(self):
        trace = evaluate(KET_PLUS)
        assert trace.fuel_used == 0
        assert isinstance(trace.final, NormalForm)

    def test_step_on_normal_form(self):
        out = step(K0)
        assert isinstance(out, NormalForm)

    def test_evaluate_value(self, gates_prog):
        d = parse_term("Hd |1>", defs=gates_prog.defs)
        assert dist_eq(evaluate_value(d), KET_MINUS)
        stuck = mk_app(K0, K1)
        assert evaluate_value(stuck) is None

    def test_module_alias(self):
        import basislam.reduction as r

        assert r.eval is evaluate


class TestAgainstOracle:
    def test_gate_chain_matches_matrices(self, gates_prog):
        cases = [
            ("NOT (Hd |0>)", oracles.X @ oracles.PLUS),
            ("Hd (NOT |1>)", oracles.H @ oracles.KET0),
            ("Z (Hd |1>)", oracles.Z @ oracles.MINUS),
            ("NOT (Z (NOT |0>))", oracles.X @ oracles.Z @ oracles.KET1),
        ]
        for src, expect in cases:
            d = parse_term(src, defs=gates_prog.defs)
            out = evaluate(d).final.dist
            assert np.allclose(oracles.dist_vector(out, 1), expect)

    def test_cnot_matches_matrix(self, gates_prog):
        for bits in ("00", "01", "10", "11"):
            src = f"CNOT |{bits[0]}> |{bits[1]}>"
            d = parse_term(src, defs=gates_prog.defs)
            out = evaluate(d).final.dist
            idx = int(bits, 2)
            start = np.zeros(4, dtype=complex)
            start[idx] = 1.0
            assert np.allclose(
                oracles.dist_vector(out, 2), oracles.CNOT @ start
            )
