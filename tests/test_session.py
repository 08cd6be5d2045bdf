"""Sessions: each input evaluated once, each judgement derived once.

A session tables `evaluate_value`, membership verdicts, the checker's
judgements and reduction's contractions for the length of one command;
an evaluation's answer is also tabled under every distribution of its
trace.  A session is bound to the settings it was opened under: a block
under other settings runs in a fresh one.  Its keys are exact, so every
output must be what the untabled code gives: these tests run the same
work with and without the tables and compare.  The untabled runs
replace `session` with a block that opens none, so only each
`evaluate`, in a session of its own, tables its contractions.
"""

import contextlib
import io
import json

import pytest

from basislam import checker, cli, corpus, reduction, typesem, unitary
from basislam.basis import KET_PLUS
from basislam.checker import (
    CheckError,
    check,
    derivation_bindings,
    subject_reduction_harness,
)
from basislam.core import (
    Table,
    dist_eq,
    get_session,
    get_settings,
    local_settings,
    session,
)
from basislam.corpus import EVAL_CASES, load_corpus, run_corpus
from basislam.reduction import evaluate, evaluate_value, run
from basislam.syntax import parse_term, parse_type, print_term
from basislam.typesem import Undecidable, is_member_phase, realizes
from test_golden_derivations import GOLDEN, golden_rows
from test_step import assert_same_final, assert_same_trace


def _corpus_run(capsys, monkeypatch) -> tuple[int, str, list]:
    """`corpus --json`: exit code, output and every harness report."""
    reports = []
    original = corpus.subject_reduction_harness

    def recording(*args):
        reports.append(original(*args))
        return reports[-1]

    with monkeypatch.context() as m:
        m.setattr(corpus, "subject_reduction_harness", recording)
        code = cli.main(["corpus", "--json"])
    return code, capsys.readouterr().out, reports


def test_corpus_and_harness_match_untabled(capsys, monkeypatch):
    tabled = _corpus_run(capsys, monkeypatch)
    # each harness in a session of its own, then none opened anywhere
    progs = load_corpus()
    own = []
    for pname, src, _, type_src in EVAL_CASES:
        bases = progs[pname].all_bases()
        term = parse_term(src, bases, progs[pname].defs)
        own.append(
            subject_reduction_harness({}, term, parse_type(type_src, bases))
        )
    for module in (checker, corpus, cli):
        monkeypatch.setattr(module, "session", contextlib.nullcontext)
    plain = _corpus_run(capsys, monkeypatch)
    assert tabled == plain
    assert own == plain[2]
    assert len(own) == len(EVAL_CASES)


def test_golden_rows_in_one_session():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    with session() as s:
        got = golden_rows()
    assert got == want
    assert s.judgements.hits > 0


def test_failing_judgement_raises_a_fresh_error():
    term, goal = parse_term("|+>"), parse_type("[B]")
    with pytest.raises(CheckError) as plain:
        check({}, term, goal)
    with session() as s:
        errors = []
        for _ in range(2):
            with pytest.raises(CheckError) as e:
                check({}, term, goal)
            errors.append(e.value)
    first, again = errors
    assert again is not first
    assert s.judgements.hits == 1
    for e in errors:
        assert (e.kind, e.message, e.note, str(e)) == (
            plain.value.kind,
            plain.value.message,
            plain.value.note,
            str(plain.value),
        )


def test_basis_names_key_separate_entries():
    goal = parse_type("[B] -> [B]")
    named = parse_term("\\x:B. x")
    literal = parse_term("\\x:{|0>, |1>}. x")
    with session() as s:
        derivations = [check({}, t, goal) for t in (named, literal, named)]
    assert s.judgements.misses == 4  # each abstraction and its body
    assert derivations[2] is derivations[0]
    names = [
        {b.basis.name for _, b in derivation_bindings(d)}
        for d in derivations[:2]
    ]
    assert names == [{"B"}, {None}]


def test_evaluation_hit_prints_its_own_basis_names():
    named = parse_term("(\\f:@fun. f) (\\x:B. x)")
    literal = parse_term("(\\f:@fun. f) (\\x:{|0>, |1>}. x)")
    with session() as s:
        evaluate_value(named)
        got = evaluate_value(literal)
    assert print_term(got) == "\\x:{|0>, |1>}. x"
    assert (s.evaluations.misses, s.evaluations.hits) == (2, 0)


def test_work_under_other_settings_is_tabled_apart(gates_prog):
    term = parse_term("Hd |0>", gates_prog.all_bases(), gates_prog.defs)
    # squared weights sum to 1.00016: a unit sum only within eps 1e-3
    near = parse_term("0.6*|0> + 0.8001*|1>")
    goal = parse_type("#[B]")
    # fired below the root, the body loses its 1e-4 summand under eps
    # 1e-3 only
    pruned = parse_term(r"(|1>, (\x:B. |0> + 0.0001*|1>) |0>)")
    loose = []  # the session of each eps-1e-3 block
    with session() as s:
        for _ in range(2):
            with local_settings(max_steps=1):
                assert evaluate_value(term) is None
            assert dist_eq(evaluate_value(term), KET_PLUS)
            with local_settings(eps=1e-3):
                loose.append(get_session())
                assert check({}, near, goal).rule == "Sum"
                assert realizes(near, goal)
                assert len(evaluate(pruned).final.dist) == 1
            with pytest.raises(CheckError):
                check({}, near, goal)
            assert not realizes(near, goal)
            assert len(evaluate(pruned).final.dist) == 2
    assert s.evaluations.hits > 0 and s.judgements.hits > 0
    assert s.memberships.hits > 0
    # the eps-1e-3 work was tabled in a session of its own each time,
    # and none of it in s: s holds near's failed judgement (the error's
    # fields), its one verdict, False, and the one fire of pruned, which
    # keeps its 1e-4 summand
    assert len({id(t) for t in [s, *loose]}) == 3
    for t in loose:
        rules = [v.rule for v in t.judgements.entries.values()]
        assert rules == ["Lit", "Lit", "Sum"]
        assert list(t.memberships.entries.values()) == [True] * 3
        assert [len(v) for v in t.contractions.entries.values()] == [1]
    assert [type(v) for v in s.judgements.entries.values()] == [tuple]
    assert list(s.memberships.entries.values()) == [False]
    assert [len(v) for v in s.contractions.entries.values()] == [2]


def test_sessions_nest_and_close():
    assert get_session() is None
    with session() as outer:
        with session() as inner:
            assert inner is outer
        assert get_session() is outer
    assert get_session() is None


def _tabled(s) -> list[int]:
    return [
        len(t.entries)
        for t in (s.evaluations, s.memberships, s.judgements, s.contractions)
    ]


def test_other_settings_run_in_a_fresh_session(gates_prog):
    bases = gates_prog.all_bases()
    term = parse_term("(|1>, Hd |0>)", bases, gates_prog.defs)
    goal = parse_type("[B] * [X]", bases)
    with session() as outer:
        with local_settings(eps=1e-6) as settings:
            inner = get_session()
            assert inner is not None and inner is not outer
            assert get_settings() is settings
            assert check({}, term, goal).rule
            assert evaluate_value(term) is not None  # fires below the root
            assert min(_tabled(inner)) > 0
        assert _tabled(outer) == [0, 0, 0, 0]
        assert get_session() is outer
        with local_settings(max_steps=5):
            assert get_session() not in (None, outer, inner)
        assert get_session() is outer
    assert get_session() is None


def test_equal_settings_keep_the_open_session():
    with session() as outer:
        with local_settings(), local_settings(get_settings()):
            assert get_session() is outer
        with local_settings(eps=get_settings().eps):
            assert get_session() is outer
    with local_settings(eps=1e-6):  # no session open: none is opened
        assert get_session() is None


@pytest.mark.parametrize("settings_first", [False, True])
def test_an_error_in_nested_blocks_restores_both(settings_first):
    settings = get_settings()
    with session() as outer:
        with pytest.raises(ZeroDivisionError):
            if settings_first:
                with local_settings(eps=1e-6), session():
                    1 / 0
            else:
                with session(), local_settings(eps=1e-6):
                    1 / 0
        assert get_session() is outer and get_settings() is settings
    with pytest.raises(ZeroDivisionError):
        with local_settings(eps=1e-6), session():
            1 / 0
    assert get_session() is None and get_settings() is settings


def test_invalid_settings_leave_the_ambient_pair_as_it_was():
    settings = get_settings()
    with session() as outer:
        with pytest.raises(ValueError):
            with local_settings(eps=-1):
                pass
        assert get_session() is outer and get_settings() is settings
    assert get_session() is None and get_settings() is settings


def test_corpus_runs_in_one_session_that_tables(monkeypatch):
    seen = []
    original = corpus.check

    def recording(*args):
        seen.append(get_session())
        return original(*args)

    # whether each fire is at the root of its whole summand: `run` fires
    # a redex at the root of its focus under the frames of a stack, so
    # the redex's own frames do not tell; a root fire is the one made
    # outside a lookup in the session's table of contractions
    fires = []
    lookups = []  # the contraction lookups in progress
    fire, memo = reduction._fire, Table.memo

    def counted(r, value):
        fires.append(not lookups)
        return fire(r, value)

    def tracked(table, key, compute):
        if table is not get_session().contractions:
            return memo(table, key, compute)
        lookups.append(key)
        try:
            return memo(table, key, compute)
        finally:
            lookups.pop()

    monkeypatch.setattr(corpus, "check", recording)
    monkeypatch.setattr(Table, "memo", tracked)
    monkeypatch.setattr(reduction, "_fire", counted)
    rows = run_corpus()
    assert all(r.ok for r in rows)
    assert get_session() is None
    assert seen and seen[0] is not None
    assert all(s is seen[0] for s in seen)
    # Without the tables the run evaluates 456 distinct inputs 12,261
    # times and derives 1,149 distinct judgements 21,864 times.  A miss
    # tables its answer under every step of its trace too, and each
    # harness seeds the table with its own trace, so a step's re-check
    # finds its evaluation tabled: 159 of the 456 inputs are evaluated.
    s = seen[0]
    assert (s.evaluations.misses, s.evaluations.hits) == (159, 1291)
    assert (s.judgements.misses, s.judgements.hits) == (1149, 1541)
    # Untabled, `realizes` asks for 445 verdicts on 142 distinct (normal
    # form, goal) pairs.  28 of the pairs are Undecidable, which stores
    # nothing, so each of their 32 requests misses: 114 + 32 misses.
    assert (s.memberships.misses, s.memberships.hits) == (146, 295)
    # with a table per evaluation, 1,709 fires; the session's table fires
    # each contraction below a summand's root once per run, 324 of them,
    # and the 642 root fires are never tabled
    assert (len(fires), sum(fires)) == (966, 642)
    assert (s.contractions.misses, s.contractions.hits) == (324, 909)


def test_corpus_evaluations_match_sessionless_traces(monkeypatch):
    # every trace a corpus run makes with the session's contractions,
    # bit for bit the trace of the same input with no session open; and
    # every answer-only run, the final result and fuel of that trace
    runs = []
    outcomes = []

    def recording(d):
        runs.append((d, evaluate(d), get_settings()))
        return runs[-1][1]

    def recording_run(d):
        outcomes.append((d, run(d), get_settings()))
        return outcomes[-1][1]

    for module in (reduction, checker):
        monkeypatch.setattr(module, "evaluate", recording)
    for module in (reduction, corpus, unitary):
        monkeypatch.setattr(module, "run", recording_run)
    assert all(r.ok for r in run_corpus())
    monkeypatch.undo()
    assert len(runs) > 100
    assert len(outcomes) > 60
    for d, trace, settings in runs:
        with local_settings(settings):
            assert_same_trace(trace, evaluate(d), d)
    for d, (final, fuel_used), settings in outcomes:
        with local_settings(settings):
            assert_same_final(final, fuel_used, evaluate(d))


def test_corpus_membership_verdicts_match_fresh_ones(monkeypatch):
    # every tabled verdict, through `realizes` or straight from
    # `pools_realize`, is asked for by `typesem._tabled_member_phase`
    calls = []  # each verdict, or None where it was Undecidable
    tabled = typesem._tabled_member_phase

    def recording(w, goal):
        at = len(calls)  # a verdict can ask for others first
        calls.append((w, goal, get_settings(), None))
        verdict = tabled(w, goal)
        calls[at] = (w, goal, get_settings(), verdict)
        return verdict

    monkeypatch.setattr(typesem, "_tabled_member_phase", recording)
    with session() as s:
        assert all(r.ok for r in run_corpus())
    monkeypatch.undo()
    assert s.memberships.hits > 0
    undecided = 0
    for w, goal, settings, verdict in calls:
        with local_settings(settings):
            if verdict is None:
                with pytest.raises(Undecidable):
                    is_member_phase(w, goal)
                undecided += 1
            else:
                assert verdict == is_member_phase(w, goal)
    assert undecided > 0


def test_undecidable_membership_is_not_tabled():
    # an arrow domain has neither finite members nor a span
    lam = parse_term(r"\f:@fun. f")
    goal = parse_type("([B] -> [B]) -> ([B] -> [B])")
    with session() as s:
        for _ in range(2):
            with pytest.raises(Undecidable):
                realizes(lam, goal)
    assert (s.memberships.misses, s.memberships.hits) == (2, 0)
    assert not s.memberships.entries


def test_a_miss_that_raises_stores_nothing_and_chains_nothing():
    table = Table()

    def compute():
        raise ValueError("no value")

    with pytest.raises(ValueError) as e:
        table.memo("key", compute)
    assert e.value.__context__ is None
    assert (table.misses, table.hits, table.entries) == (1, 0, {})


def _same_answer(a, b) -> bool:
    return a is None and b is None or (
        a is not None and b is not None and dist_eq(a, b)
    )


def test_corpus_harness_steps_match_fresh_evaluations():
    progs = load_corpus()
    cases = []
    for pname, src, _, type_src in EVAL_CASES:
        bases = progs[pname].all_bases()
        term = parse_term(src, bases, progs[pname].defs)
        dists = [term] + [d for d, _ in evaluate(term).steps]
        fresh = [evaluate_value(d) for d in dists]  # no session is open
        cases.append((term, parse_type(type_src, bases), dists, fresh))
    steps = 0
    with session() as s:
        for term, goal, dists, fresh in cases:
            assert subject_reduction_harness({}, term, goal).ok
            misses = s.evaluations.misses
            for d, want in zip(dists, fresh):
                assert _same_answer(evaluate_value(d), want)
            # the harness tabled its own trace: every step is a hit
            assert s.evaluations.misses == misses
            steps += len(dists) - 1
    assert steps == 299


def _gates_term(gates_prog, src):
    return parse_term(src, gates_prog.all_bases(), gates_prog.defs)


def test_trace_out_of_fuel_leaves_its_steps_untabled(gates_prog):
    term = _gates_term(gates_prog, "NOT (NOT (NOT |0>))")
    steps = [d for d, _ in evaluate(term).steps]
    assert len(steps) == 6
    with session(), local_settings(max_steps=4):
        assert evaluate_value(term) is None  # fuel runs out after 4
        # four steps remain from steps[1]: within the fuel of a fresh
        # evaluation, though not within what was left of the first one
        got = evaluate_value(steps[1])
        assert got is not None and dist_eq(got, parse_term("|1>"))


def test_stuck_trace_tables_none_under_its_steps(gates_prog):
    term = _gates_term(gates_prog, "(\\x:B. (\\u:B. y u) x) (NOT |0>)")
    trace = evaluate(term)
    assert trace.final.reason == "free variable"
    assert len(trace.steps) == 4
    with session() as s:
        assert evaluate_value(term) is None
        assert (s.evaluations.misses, s.evaluations.hits) == (1, 0)
        for d, _ in trace.steps:
            assert evaluate_value(d) is None
        assert (s.evaluations.misses, s.evaluations.hits) == (1, 4)


def _record_sessions(monkeypatch) -> list:
    seen = []
    original = cli.parse_term

    def recording(*args):
        seen.append(get_session())
        return original(*args)

    monkeypatch.setattr(cli, "parse_term", recording)
    return seen


@pytest.mark.parametrize(
    "argv, code",
    [(["check", "|0>", "[B]"], 0), (["eval", "(|0>"], 2)],
)
def test_cli_command_runs_in_a_session(capsys, monkeypatch, argv, code):
    seen = _record_sessions(monkeypatch)
    assert cli.main(argv) == code
    assert len(seen) == 1 and seen[0] is not None
    assert get_session() is None


def test_repl_line_runs_in_a_session_of_its_own(capsys, monkeypatch):
    seen = _record_sessions(monkeypatch)
    monkeypatch.setattr("sys.stdin", io.StringIO("|0>\n(|0>\n|1>\n:q\n"))
    assert cli.main(["repl"]) == 0
    assert len(seen) == 3 and None not in seen
    assert len({id(s) for s in seen}) == 3
    assert get_session() is None
