"""Typing judgements: rule selection, exact diagnostics, the orthogonality
judgement, and the step-by-step re-checking harness."""

import gc
import types

import pytest

from basislam.basis import STD
from basislam.checker import (
    Binding,
    CheckError,
    Derivation,
    _check,
    _sem_judge,
    _synth,
    _Tried,
    check,
    check_orthogonality,
    subject_reduction_harness,
    uses_sharp_binding,
)
from basislam.core import (
    ABS,
    App,
    Ket,
    Ortho,
    Var,
    local_settings,
    mk_app,
    scale,
    single,
    zero,
)
from basislam.corpus import run_corpus
from basislam.reduction import evaluate_value
from basislam.syntax import parse_term, parse_type, print_term, print_type
from basislam.typesem import (
    Arrow,
    BasisType,
    Prod,
    is_member_phase,
    linear_pool,
)


def _check_def(prog, name: str, ty: str) -> Derivation:
    goal = parse_type(ty, prog.all_bases())
    return check({}, prog.defs[name], goal)


class TestRuleSelection:
    def test_abstraction_root(self, gates_prog):
        d = _check_def(gates_prog, "NOT", "[B] -> [B]")
        assert d.rule == "UnitLam"

    def test_abstraction_against_a_sharp_arrow(self):
        d = check({}, parse_term("\\x:B. x"), parse_type("#([B] -> [B])"))

        def rules(d):
            return [d.rule] + [r for p in d.premises for r in rules(p)]

        assert rules(d) == ["Sub", "UnitLam", "Axiom"]

    def test_application_root(self, gates_prog):
        term = parse_term("NOT |0>", defs=gates_prog.defs)
        d = check({}, term, parse_type("[B]"))
        assert d.rule == "App"
        assert len(d.premises) == 2

    def test_pair_root(self):
        d = check({}, parse_term("(|0>, |1>)"), parse_type("[B] * [B]"))
        assert d.rule == "Pair"

    def test_let_root(self):
        term = parse_term("let (x:B, y:B) = (|0>, |1>) in (y, x)")
        d = check({}, term, parse_type("[B] * [B]"))
        assert d.rule == "LetPair"

    def test_let_binder_shadowing_context_is_renamed(self):
        # the context's x is free in the scrutinee, so the body sees the
        # binder under a fresh name
        ctx = {"x": Binding(parse_type("[B]"), STD)}
        term = parse_term("let (x:B, y:B) = (x, |1>) in (y, x)")
        d = check(ctx, term, parse_type("[B] * [B]"))
        assert d.rule == "LetPair"
        body = d.premises[1]
        assert [name for name, _ in body.ctx] == ["x1", "y"]
        assert print_term(body.term) == "(y, x1)"

    def test_case_root(self):
        term = parse_term("case |0> of { |0> -> |1> | |1> -> |0> }")
        d = check({}, term, parse_type("[B]"))
        assert d.rule == "Case"

    def test_variable_axiom(self):
        ctx = {"x": Binding(parse_type("[B]"), STD)}
        d = check(ctx, single(Var("x")), parse_type("[B]"))
        assert d.rule == "Axiom"

    def test_variable_coercion(self):
        ctx = {"x": Binding(parse_type("[B]"), STD)}
        d = check(ctx, single(Var("x")), parse_type("#[X]"))
        assert d.rule == "Sub"
        assert d.premises[0].rule == "Axiom"

    def test_ket_literal(self):
        d = check({}, single(Ket(0)), parse_type("[B]"))
        assert d.rule == "Lit"

    def test_global_phase(self):
        d = check({}, scale(-1.0, single(Ket(0))), parse_type("[B]"))
        assert d.rule == "Phase"
        assert d.premises[0].rule == "Lit"

    def test_superposition_root(self):
        term = parse_term("(1/sqrt2)*|0> + (1/sqrt2)*|1>")
        d = check({}, term, parse_type("#[B]"))
        assert d.rule == "Sum"
        assert len(d.premises) == 2

    def test_derivation_walk_covers_premises(self, gates_prog):
        term = parse_term("NOT |0>", defs=gates_prog.defs)
        d = check({}, term, parse_type("[B]"))
        rules = [node.rule for node in d.walk()]
        assert rules[0] == "App"
        assert len(rules) >= 3

    def test_public_check_is_not_the_recursion(self):
        # a profiler that wraps the public name counts top-level
        # judgements only as long as the recursion does not call it
        assert check is not _check


class TestProgramGoals:
    def test_gate_goals(self, gates_prog):
        for goal in gates_prog.goals:
            d = check({}, gates_prog.defs[goal.name], goal.type)
            assert isinstance(d, Derivation), goal.name

    def test_teleport_goal(self, teleport_prog):
        (goal,) = teleport_prog.goals
        d = check({}, teleport_prog.defs[goal.name], goal.type)
        assert isinstance(d, Derivation)

    def test_plain_judgement_binds_no_span_variable(self, deutsch_prog):
        goal = parse_type(
            "([X] -> [X] -> [X] * [X]) -> [B]",
            deutsch_prog.all_bases(),
        )
        d = check({}, deutsch_prog.defs["Deutsch"], goal)
        assert uses_sharp_binding(d) is False

    def test_span_judgement_binds_span_variable(self, deutsch_prog):
        goal = parse_type(
            "(#[B] -> #[B] -> #[B] * #[B]) -> #([B] * [B])",
            deutsch_prog.all_bases(),
        )
        d = check({}, deutsch_prog.defs["DeutschStd"], goal)
        assert uses_sharp_binding(d) is True


class TestClassicalData:
    """Variables at a plain basis type hold classical data: dropping and
    copying them is allowed, unlike span-typed variables."""

    def test_basis_variable_droppable(self):
        term = parse_term("\\x:B. |0>")
        d = check({}, term, parse_type("[B] -> [B]"))
        assert d.rule == "UnitLam"

    def test_basis_variable_copyable(self):
        term = parse_term("\\x:B. (x, x)")
        d = check({}, term, parse_type("[B] -> [B] * [B]"))
        assert d.rule == "UnitLam"


class TestDiagnostics:
    def test_dropped_variable(self):
        term = parse_term("\\x:B. |0>")
        with pytest.raises(CheckError) as e:
            check({}, term, parse_type("#[B] -> [B]"))
        assert e.value.message == "linear variable dropped: x"

    def test_duplicated_variable(self):
        term = parse_term("\\x:B. (x, x)")
        with pytest.raises(CheckError) as e:
            check({}, term, parse_type("#[B] -> #([B] * [B])"))
        assert e.value.message == "linear variable duplicated: x"

    def test_subtype_failure(self):
        ctx = {"x": Binding(parse_type("[B]"), STD)}
        with pytest.raises(CheckError) as e:
            check(ctx, single(Var("x")), parse_type("[X]"))
        assert e.value.message == "subtype check failed [B] ≤ [X]"

    def test_branch_overlap(self, gates_prog):
        with pytest.raises(CheckError) as e:
            _check_def(gates_prog, "Cloner", "#[B] -> #[B]")
        assert e.value.message == (
            "orthogonality premise failed (branches 0,1)"
        )

    def test_unbound_variable(self):
        with pytest.raises(CheckError) as e:
            check({}, single(Var("x")), parse_type("[B]"))
        assert e.value.message == "unbound variable: x"

    def test_empty_distribution(self):
        with pytest.raises(CheckError) as e:
            check({}, zero(), parse_type("[B]"))
        assert e.value.message == "rule not applicable"

    def test_mismatched_abstraction_bases(self):
        term = parse_term("(1/sqrt2)*(\\x:B. x) + (1/sqrt2)*(\\x:X. x)")
        with pytest.raises(CheckError):
            check({}, term, parse_type("[B] -> [B]"))

    def test_sem_value_outside_annotation_span(self):
        ctx = {"x": Binding(BasisType(STD), Ortho((single(Ket(0)),)))}
        term = parse_term("case x of {|0> -> |0> | |1> -> |1>}")
        with pytest.raises(CheckError) as e:
            _sem_judge(ctx, term, parse_type("[B]"))
        assert e.value.message == "rule not applicable"
        assert e.value.note == (
            "semantic check: a context value is outside its annotation span"
        )

    def test_sem_undecidable_instance_is_a_check_error(self):
        # the instance is an arrow into [B] from a span, whose membership
        # is undecidable; it used to escape as typesem.Undecidable
        term = parse_term("let (x:B, y:B) = (|0>, |0>) in \\z:B. z")
        with pytest.raises(CheckError) as e:
            _sem_judge({}, term, parse_type("#[B] -> [B]"))
        assert e.value.message == "rule not applicable"
        assert e.value.note == "membership undecidable for this domain"

    def test_no_type_for_an_application_whose_argument_fails(self):
        ctx = {"f": Binding(parse_type("[X] -> [B]"), ABS)}
        assert _synth(ctx, parse_term("f |0>")) is None

    def test_duplication_beats_fallback(self):
        # the evaluation fallback must not rescue a copied span variable
        # even though every image of the generators lands in the goal
        # (the generator images |00> and |11> are orthonormal)
        term = parse_term("\\x:B. (x, x)")
        with pytest.raises(CheckError) as e:
            check({}, term, parse_type("#[B] -> #([B] * [B])"))
        assert "linear variable duplicated" in e.value.message

    def test_failed_alternatives_leave_no_reference_cycles(self):
        # a recorded error's traceback reaches the frame that holds the
        # record, and its context can too: the collector, not reference
        # counting, would have to free every failed alternative
        enabled, flags = gc.isenabled(), gc.get_debug()
        gc.collect()
        gc.disable()
        try:
            assert all(r.ok for r in run_corpus())
            gc.set_debug(gc.DEBUG_SAVEALL)
            start = len(gc.garbage)
            gc.collect()
            cyclic = {type(o) for o in gc.garbage[start:]}
            del gc.garbage[start:]
        finally:
            gc.set_debug(flags)
            if enabled:
                gc.enable()
        assert not cyclic & {types.FrameType, _Tried, CheckError}


class TestOrthogonalityJudgement:
    def test_closed_orthogonal(self):
        assert check_orthogonality({}, {}, single(Ket(0)), {}, single(Ket(1)))

    def test_closed_overlapping(self):
        plus = parse_term("(1/sqrt2)*|0> + (1/sqrt2)*|1>")
        assert not check_orthogonality({}, {}, single(Ket(0)), {}, plus)

    def test_open_orthogonal_components(self):
        # (x, |0>) and (y, |1>) stay orthogonal for every substitution
        # because the second components never overlap
        d1 = {"x": Binding(parse_type("#[B]"), STD)}
        d2 = {"y": Binding(parse_type("#[B]"), STD)}
        t = parse_term("(x, |0>)")
        s = parse_term("(y, |1>)")
        assert check_orthogonality({}, d1, t, d2, s)

    def test_open_overlapping_instance(self):
        d1 = {"x": Binding(parse_type("#[B]"), STD)}
        t = single(Var("x"))
        assert not check_orthogonality({}, d1, t, {}, single(Ket(0)))

    def test_value_outside_annotation_span_rejected(self):
        # x : [B] ranges over |0> and |1>; |1> leaves the span of {|0>}
        gamma = {"x": Binding(BasisType(STD), Ortho((single(Ket(0)),)))}
        x = single(Var("x"))
        assert not check_orthogonality(gamma, {}, x, {}, x)

    def test_stuck_side_rejected(self):
        bad = single(App(Ket(0), Ket(1)))
        assert not check_orthogonality({}, {}, bad, {}, single(Ket(1)))

    def test_non_enumerable_context(self):
        d1 = {"f": Binding(parse_type("[B] -> [B]"), STD)}
        t = single(App(Var("f"), Ket(0)))
        with pytest.raises(CheckError) as e:
            check_orthogonality({}, d1, t, {}, single(Ket(1)))
        assert e.value.message == "context not basis-enumerable"


class TestHarness:
    def test_gate_application(self, gates_prog):
        term = parse_term("NOT |1>", defs=gates_prog.defs)
        report = subject_reduction_harness({}, term, parse_type("[B]"))
        assert report.ok
        assert report.steps
        assert all(step.ok for step in report.steps)
        assert all(isinstance(step.rule, str) for step in report.steps)

    def test_entangling_application(self, gates_prog):
        term = parse_term(
            "CNOT ((1/sqrt2)*|0> + (1/sqrt2)*|1>) |0>",
            defs=gates_prog.defs,
        )
        report = subject_reduction_harness(
            {}, term, parse_type("#([B] * [B])")
        )
        assert report.ok

    def test_no_fuel_is_a_failure(self):
        with local_settings(max_steps=0):
            report = subject_reduction_harness(
                {}, parse_term("(\\x:B. x) |0>"), parse_type("[B]")
            )
        assert not report.ok
        assert report.failure == (
            "evaluation did not finish: fuel exhausted after 0 steps"
        )

    def test_untypable_start(self):
        term = parse_term("\\x:B. (x, x)")
        report = subject_reduction_harness(
            {}, term, parse_type("#[B] -> #([B] * [B])")
        )
        assert not report.ok
        assert report.failure.startswith("initial judgement:")
        assert report.steps == []


# ---------------------------------------------------------------------------
# Rules alone: a derivation built from the typing rules, with no closed
# term evaluated against its goal (Lit) and no semantic fallback (Sem),
# must be sound on its own.  Every value that pins down a linear map on
# the domain, applied to the term, reaches a member of the codomain.

_ANNOTATIONS = ("B", "X", "{|0>}", "{|+>}")
_DOMAINS = ("[B]", "[X]", "#[B]", "#[X]", "[{|0>}]", "[{|+>}]")


def _by_rules_alone(d: Derivation) -> bool:
    return d.rule not in ("Lit", "Sem") and all(
        _by_rules_alone(p) for p in d.premises
    )


def _rules_alone_violations() -> list[str]:
    found = []
    for annotation in _ANNOTATIONS:
        for text in _DOMAINS:
            dom = parse_type(text)
            for body, cod in (("x", dom), ("(x, x)", Prod(dom, dom))):
                term = parse_term(f"\\x:{annotation}. {body}")
                goal = Arrow(dom, cod)
                try:
                    derivation = check({}, term, goal)
                except CheckError:
                    continue
                if not _by_rules_alone(derivation):
                    continue
                _, pool = linear_pool(dom)
                for v in pool:
                    w = evaluate_value(mk_app(term, v))
                    if w is None or not is_member_phase(w, cod):
                        found.append(
                            f"{print_term(term)} : {print_type(goal)}"
                        )
                        break
    return found


def test_rules_alone_are_sound_on_the_variable_grid():
    # a binder's type must lie in its annotation's span: at
    # \x:{|0>}. (x, x) : [B] -> [B] * [B] the variable rule once took
    # x : [B] from the annotation {|0>}, and |1> then got stuck
    assert _rules_alone_violations() == []
