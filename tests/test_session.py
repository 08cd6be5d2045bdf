"""Sessions: each input evaluated once, each judgement derived once.

A session tables `evaluate_value` and the checker's judgements for the
length of one command.  Its keys are exact, so every output must be what
the untabled code gives: these tests run the same work with and without
the tables and compare.  The untabled runs replace `session` with a block
that opens none, so nothing is tabled at all.
"""

import contextlib
import io
import json

import pytest

from basislam import checker, cli, corpus
from basislam.basis import KET_PLUS
from basislam.checker import (
    CheckError,
    check,
    derivation_bindings,
    subject_reduction_harness,
)
from basislam.core import dist_eq, get_session, local_settings, session
from basislam.corpus import EVAL_CASES, load_corpus, run_corpus
from basislam.reduction import evaluate_value
from basislam.syntax import parse_term, parse_type
from test_golden_derivations import GOLDEN, golden_rows


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


def test_settings_are_part_of_each_key(gates_prog):
    term = parse_term("Hd |0>", gates_prog.all_bases(), gates_prog.defs)
    # squared weights sum to 1.00016: a unit sum only within eps 1e-3
    near = parse_term("0.6*|0> + 0.8001*|1>")
    goal = parse_type("#[B]")
    with session() as s:
        for _ in range(2):
            with local_settings(max_steps=1):
                assert evaluate_value(term) is None
            assert dist_eq(evaluate_value(term), KET_PLUS)
            with local_settings(eps=1e-3):
                assert check({}, near, goal).rule == "Sum"
            with pytest.raises(CheckError):
                check({}, near, goal)
    assert s.evaluations.hits > 0 and s.judgements.hits > 0


def test_sessions_nest_and_close():
    assert get_session() is None
    with session() as outer:
        with session() as inner:
            assert inner is outer
        assert get_session() is outer
    assert get_session() is None


def test_corpus_runs_in_one_session_that_tables(monkeypatch):
    seen = []
    original = corpus.check

    def recording(*args):
        seen.append(get_session())
        return original(*args)

    monkeypatch.setattr(corpus, "check", recording)
    rows = run_corpus()
    assert all(r.ok for r in rows)
    assert get_session() is None
    assert seen and seen[0] is not None
    assert all(s is seen[0] for s in seen)
    # Without the tables the run evaluates 459 distinct inputs 12,440
    # times and derives 1,149 distinct judgements 21,864 times.
    assert seen[0].evaluations.misses == 459
    assert seen[0].judgements.misses == 1149


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
