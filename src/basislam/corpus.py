"""Bundled example programs and a self-checking result table.

The corpus has three layers: evaluation expectations (a term, its normal
form up to global phase, and the judgement preserved along the way), the
type goals declared inside each program file, and unit-map verdicts for the
gate library.  ``run_corpus`` executes all of them and returns rows that
the command line renders as a pass/fail table.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .checker import CheckError, check, subject_reduction_harness
from .core import TermDist, dist_eq, phase_normalize, session
from .reduction import NormalForm, run
from .syntax import (
    ParseError,
    Program,
    parse_program,
    parse_term,
    parse_type,
    print_term,
    print_type,
)
from .typesem import subtype
from .unitary import UnitaryError, check_unitary, uncurried

CORPUS_NAMES = ("gates", "deutsch", "teleport")


def corpus_text(name: str) -> str:
    return (
        resources.files("basislam") / "corpus" / f"{name}.lb"
    ).read_text(encoding="utf-8")


def corpus_program(name: str) -> Program:
    return parse_program(corpus_text(name), f"{name}.lb")


def load_corpus() -> dict[str, Program]:
    return {name: corpus_program(name) for name in CORPUS_NAMES}


@dataclass
class CorpusRow:
    section: str
    name: str
    ok: bool
    detail: str = ""


# (program, term, normal form up to global phase, preserved judgement)
EVAL_CASES: list[tuple[str, str, str, str]] = [
    ("gates", "NOT |1>", "|0>", "[B]"),
    ("gates", "Z |1>", "- |1>", "[B]"),
    ("gates", "Hd |0>", "|+>", "[X]"),
    ("gates", "Hd |+>", "|0>", "#[B]"),
    ("gates", "CNOT |1> |0>", "|11>", "[B] * [B]"),
    (
        "gates",
        "CNOT |+> |0>",
        "(1/sqrt2)*|00> + (1/sqrt2)*|11>",
        "#([B] * [B])",
    ),
    ("gates", "ZX |+>", "|->", "[X]"),
    ("gates", "XX |->", "- |->", "[X]"),
    ("gates", "CNOTX |+> |->", "(|->, |->)", "[X] * [X]"),
    ("deutsch", "Deutsch OX_const0", "|0>", "[B]"),
    ("deutsch", "Deutsch OX_const1", "|0>", "[B]"),
    ("deutsch", "Deutsch OX_id", "|1>", "[B]"),
    ("deutsch", "Deutsch OX_flip", "|1>", "[B]"),
    (
        "deutsch",
        "DeutschStd OB_const0",
        "(1/sqrt2)*|00> - (1/sqrt2)*|01>",
        "#([B] * [B])",
    ),
    (
        "deutsch",
        "DeutschStd OB_const1",
        "(1/sqrt2)*|00> - (1/sqrt2)*|01>",
        "#([B] * [B])",
    ),
    (
        "deutsch",
        "DeutschStd OB_id",
        "(1/sqrt2)*|10> - (1/sqrt2)*|11>",
        "#([B] * [B])",
    ),
    (
        "deutsch",
        "DeutschStd OB_flip",
        "(1/sqrt2)*|10> - (1/sqrt2)*|11>",
        "#([B] * [B])",
    ),
    (
        "teleport",
        "Teleport |0>",
        "(1/2)*(PhiP, |0>) + (1/2)*(PhiM, |0>)"
        " + (1/2)*(PsiP, |0>) + (1/2)*(PsiM, |0>)",
        "#[Bell] * #[B]",
    ),
    (
        "teleport",
        "Teleport |+>",
        "(1/2)*(PhiP, |+>) + (1/2)*(PhiM, |+>)"
        " + (1/2)*(PsiP, |+>) + (1/2)*(PsiM, |+>)",
        "#[Bell] * #[B]",
    ),
]

# (program, definition, expected verdict); a curried two-argument gate is
# analysed uncurried over the product of its annotation bases
UNITARY_CASES: list[tuple[str, str, bool]] = [
    ("gates", "NOT", True),
    ("gates", "Z", True),
    ("gates", "Hd", True),
    ("gates", "ZX", True),
    ("gates", "XX", True),
    ("gates", "CNOT", True),
    ("gates", "CNOTX", True),
    ("gates", "Cloner", False),
    ("deutsch", "OB_const0", True),
    ("deutsch", "OB_const1", True),
    ("deutsch", "OB_id", True),
    ("deutsch", "OB_flip", True),
    ("deutsch", "OX_const0", True),
    ("deutsch", "OX_const1", True),
    ("deutsch", "OX_id", True),
    ("deutsch", "OX_flip", True),
]

# The two sharp qubit types coincide: each is the full one-qubit span.
SUBTYPE_CASES: list[tuple[str, str, bool]] = [
    ("#[B]", "#[X]", True),
    ("#[X]", "#[B]", True),
    ("[B]", "[X]", False),
    ("[B]", "#[X]", True),
]


def _phase_eq(a: TermDist, b: TermDist) -> bool:
    if not a.entries or not b.entries:
        return dist_eq(a, b)
    na, _ = phase_normalize(a)
    nb, _ = phase_normalize(b)
    return dist_eq(na, nb)


def _eval_rows(progs: dict[str, Program]) -> list[CorpusRow]:
    rows = []
    for pname, src, expected_src, _ in EVAL_CASES:
        prog = progs[pname]
        name = f"{pname}: {src}"
        try:
            term = parse_term(src, prog.all_bases(), prog.defs)
            expected = parse_term(
                expected_src, prog.all_bases(), prog.defs
            )
        except ParseError as e:
            rows.append(CorpusRow("eval", name, False, str(e)))
            continue
        final, fuel_used = run(term)
        if not isinstance(final, NormalForm):
            rows.append(CorpusRow("eval", name, False, final.reason))
            continue
        ok = _phase_eq(final.dist, expected)
        detail = f"{fuel_used} steps"
        if not ok:
            detail = f"got {print_term(final.dist)}"
        rows.append(CorpusRow("eval", name, ok, detail))
    return rows


def _goal_rows(progs: dict[str, Program]) -> list[CorpusRow]:
    rows = []
    for pname, prog in progs.items():
        for goal in prog.goals:
            name = f"{pname}: {goal.name} : {print_type(goal.type)}"
            term = prog.defs[goal.name]
            try:
                deriv = check({}, term, goal.type)
                rows.append(CorpusRow("type", name, True, deriv.rule))
            except CheckError as e:
                rows.append(CorpusRow("type", name, False, str(e)))
    return rows


def _unitary_rows(progs: dict[str, Program]) -> list[CorpusRow]:
    rows = []
    for pname, dname, expect in UNITARY_CASES:
        f, over = uncurried(progs[pname].defs[dname])
        name = f"{pname}: {dname}"
        if over is not None:
            name += " (uncurried)"
        try:
            report = check_unitary(f)
        except UnitaryError as e:
            rows.append(CorpusRow("unitary", name, False, str(e)))
            continue
        ok = report.unitary == expect
        detail = f"{report.label}, deviation {report.deviation:.2e}"
        if not report.unitary:
            i, j, g = report.witness
            detail += f", witness ({i},{j}) = {g:.3g}"
        rows.append(CorpusRow("unitary", name, ok, detail))
    return rows


def _harness_rows(progs: dict[str, Program]) -> list[CorpusRow]:
    rows = []
    for pname, src, _, type_src in EVAL_CASES:
        prog = progs[pname]
        name = f"{pname}: {src} : {type_src}"
        term = parse_term(src, prog.all_bases(), prog.defs)
        goal = parse_type(type_src, prog.all_bases())
        report = subject_reduction_harness({}, term, goal)
        detail = f"{len(report.steps)} steps re-checked"
        if not report.ok:
            bad = [s for s in report.steps if not s.ok]
            detail = (
                report.failure
                or f"step {bad[0].index}: {bad[0].message}"
            )
        rows.append(CorpusRow("harness", name, report.ok, detail))
    return rows


def _subtype_rows() -> list[CorpusRow]:
    rows = []
    for a_src, b_src, expect in SUBTYPE_CASES:
        a = parse_type(a_src)
        b = parse_type(b_src)
        got = subtype(a, b)
        rows.append(
            CorpusRow(
                "subtype",
                f"{a_src} <= {b_src}",
                got is expect,
                f"expected {expect}, got {got}",
            )
        )
    return rows


def run_corpus() -> list[CorpusRow]:
    """Every row, in one session: the rows share evaluations and
    judgements."""
    with session():
        progs = load_corpus()
        rows: list[CorpusRow] = []
        rows.extend(_eval_rows(progs))
        rows.extend(_goal_rows(progs))
        rows.extend(_unitary_rows(progs))
        rows.extend(_harness_rows(progs))
        rows.extend(_subtype_rows())
        return rows


def format_rows(rows: list[CorpusRow]) -> str:
    width = max(len(r.name) for r in rows) if rows else 4
    lines = []
    for r in rows:
        mark = "pass" if r.ok else "FAIL"
        lines.append(
            f"{r.section:<8} {r.name:<{width}}  {mark}  {r.detail}"
        )
    passed = sum(1 for r in rows if r.ok)
    failed = len(rows) - passed
    lines.append(f"{passed} passed, {failed} failed")
    return "\n".join(lines)
