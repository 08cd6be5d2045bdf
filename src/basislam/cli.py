"""Command line driver.

Subcommands cover the pipeline end to end: ``parse`` and ``eval`` for the
operational side, ``check`` and ``ortho`` for the type system, ``unitary``
for matrix extraction, ``repl`` for interactive use, and ``corpus`` for
the bundled example table.  Exit status is 0 on success, 1 when the
analysis itself reports a failure (stuck term, ill-typed program, unit-map
violation, failing corpus row), and 2 for unusable input.

``main`` may be called any number of times in one process.  It builds
its argument parser on the first call and reuses it after; it keeps no
other state between calls.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict
from typing import NamedTuple, Optional

from .basis import Ortho
from .checker import CheckError, Derivation, check, check_orthogonality
from .core import (
    Settings,
    TermDist,
    local_settings,
    phase_normalize,
    session,
    single,
)
from .corpus import format_rows, run_corpus
from .reduction import NormalForm, evaluate, run
from .syntax import (
    ParseError,
    load_program,
    parse_term,
    parse_type,
    print_basis,
    print_term,
    print_type,
    render_scalar,
)
from .typesem import Type
from .unitary import GRAM_TOL, UnitaryError, check_unitary, uncurried

ANALYSIS_FAILURE = 1
USAGE_ERROR = 2
# the diagnostic for RecursionError: every traversal of a term recurses
# on it, so only a too-deep term exhausts the stack
TOO_DEEP = "term too deep"


def _fmt_phase(c: complex) -> str:
    neg, text = render_scalar(c)
    text = text or "1"
    return f"-{text}" if neg else text


def _complex_pair(c: complex) -> list[float]:
    return [c.real, c.imag]


def _phase_split(nf: TermDist) -> tuple[TermDist, complex]:
    """A normal form with its global phase divided out, and that phase
    (1 for the zero distribution)."""
    if nf.is_zero():
        return nf, complex(1.0)
    return phase_normalize(nf)


def _environment(
    def_files: list[str],
) -> tuple[Optional[dict[str, Ortho]], dict[str, TermDist]]:
    if not def_files:
        return None, {}
    bases: dict[str, Ortho] = {}
    defs: dict[str, TermDist] = {}
    for path in def_files:
        prog = load_program(path)
        bases.update(prog.all_bases())
        defs.update(prog.defs)
    return bases, defs


# ---------------------------------------------------------------------------
# Subcommands.  Each but repl returns a report and prints nothing; main
# prints it.


class Report(NamedTuple):
    """A command's output: the payload printed as one JSON object under
    --json, else the text lines; and the exit code."""

    payload: dict
    lines: list[str]
    code: int = 0


def _type_error(key: str, e: CheckError) -> Report:
    return Report(
        {key: False, "error": str(e)}, [f"type error: {e}"], ANALYSIS_FAILURE
    )


def _cmd_parse(args, bases, defs) -> Report:
    if args.type:
        text = print_type(parse_type(args.term, bases))
        return Report({"type": text}, [text])
    text = print_term(parse_term(args.term, bases, defs))
    return Report({"term": text}, [text])


def _cmd_eval(args, bases, defs) -> Report:
    d = parse_term(args.term, bases, defs)
    # only --trace reads the steps; run keeps just the last one
    result = evaluate(d) if args.trace else run(d)
    final = result.final
    if isinstance(final, NormalForm):
        normalized, phase = _phase_split(final.dist)
        text = print_term(normalized)
        payload = {
            "normal_form": text,
            "steps": result.fuel_used,
            "phase": _complex_pair(phase),
        }
        lines = [
            f"normal form: {text}",
            f"steps: {result.fuel_used}",
            f"phase: {_fmt_phase(phase)}",
        ]
        code = 0
    else:
        at = None
        if final.offending is not None:
            at = print_term(single(final.offending))
        payload = {"stuck": final.reason, "at": at, "steps": result.fuel_used}
        lines = [f"stuck: {final.reason}"]
        if at is not None:
            lines.append(f"at: {at}")
        lines.append(f"steps: {result.fuel_used}")
        code = ANALYSIS_FAILURE
    if args.trace:
        steps = [
            {"rule": rule.value, "term": print_term(dist)}
            for dist, rule in result.steps
        ]
        payload["trace"] = steps
        lines[:0] = [
            f"{k + 1:>4}. {step['rule']:<12} {step['term']}"
            for k, step in enumerate(steps)
        ]
    return Report(payload, lines, code)


def _check_source(
    term_src: str, type_src: str, bases, defs
) -> tuple[Type, Derivation]:
    """Parse a term and a type, then check the closed term against it."""
    d = parse_term(term_src, bases, defs)
    goal = parse_type(type_src, bases)
    return goal, check({}, d, goal)


def _cmd_check(args, bases, defs) -> Report:
    try:
        goal, deriv = _check_source(args.term, args.type_, bases, defs)
    except CheckError as e:
        return _type_error("ok", e)
    return Report(
        {"ok": True, "rule": deriv.rule},
        [f"well-typed: {print_type(goal)}", f"rule: {deriv.rule}"],
    )


def _cmd_ortho(args, bases, defs) -> Report:
    left = parse_term(args.left, bases, defs)
    right = parse_term(args.right, bases, defs)
    goal = parse_type(args.type_, bases)
    try:
        for side in (left, right):  # the judgement types both sides
            check({}, side, goal)
    except CheckError as e:
        return _type_error("orthogonal", e)
    ok = check_orthogonality({}, {}, left, {}, right)
    return Report(
        {"orthogonal": ok},
        ["orthogonal" if ok else "not orthogonal"],
        0 if ok else ANALYSIS_FAILURE,
    )


def _fmt_entry(z: complex) -> str:
    return f"{z.real:+.6f}{z.imag:+.6f}i"


def _cmd_unitary(args, bases, defs) -> Report:
    f, over = uncurried(parse_term(args.term, bases, defs))
    try:
        report = check_unitary(f)
    except UnitaryError as e:
        return Report({"error": str(e)}, [f"error: {e}"], ANALYSIS_FAILURE)
    i, j, g = report.witness
    basis = print_basis(report.basis)
    payload = {
        "uncurried_over": over,
        "label": report.label,
        "unitary": report.unitary,
        "isometry": report.isometry,
        "square": report.square,
        "deviation": report.deviation,
        "witness": [i, j, _complex_pair(g)],
        "basis": basis,
        "matrix": [[_complex_pair(z) for z in row] for row in report.matrix],
    }
    lines = [] if over is None else [f"uncurried over {over}"]
    lines += [f"basis: {basis}", "matrix:"]
    lines += [
        "  [ " + "  ".join(_fmt_entry(z) for z in row) + " ]"
        for row in report.matrix
    ]
    lines.append(f"{report.label} (deviation {report.deviation:.3g})")
    if not report.isometry:
        lines.append(f"witness: gram entry ({i},{j}) = {g:.6g}")
    return Report(payload, lines, 0 if report.unitary else ANALYSIS_FAILURE)


def _cmd_corpus(args, bases, defs) -> Report:
    rows = run_corpus()
    passed = sum(1 for r in rows if r.ok)
    payload = {
        "rows": [asdict(r) for r in rows],
        "passed": passed,
        "failed": len(rows) - passed,
    }
    code = 0 if passed == len(rows) else ANALYSIS_FAILURE
    return Report(payload, [format_rows(rows)], code)


_REPL_HELP = """commands:
  TERM             evaluate a term
  :t TERM : TYPE   check the term against the type
  :u TERM          report whether the term denotes a unit map
  :h               this message
  :q               quit"""


def _repl_line(line: str, bases, defs) -> None:
    if line.startswith(":t "):
        rest = line[3:]
        if " : " not in rest:
            print("usage: :t TERM : TYPE")
            return
        term_src, type_src = rest.rsplit(" : ", 1)
        try:
            _, deriv = _check_source(term_src, type_src, bases, defs)
        except CheckError as e:
            print(f"type error: {e}")
            return
        print(f"well-typed via {deriv.rule}")
        return
    if line.startswith(":u "):
        f, _ = uncurried(parse_term(line[3:], bases, defs))
        report = check_unitary(f)
        print(f"{report.label} (deviation {report.deviation:.3g})")
        return
    d = parse_term(line, bases, defs)
    final, fuel_used = run(d)
    if isinstance(final, NormalForm):
        normalized, phase = _phase_split(final.dist)
        note = f"[steps {fuel_used}, phase {_fmt_phase(phase)}]"
        print(f"{print_term(normalized)}  {note}")
    else:
        print(f"stuck: {final.reason}")
        if final.offending is not None:
            print(f"at: {print_term(single(final.offending))}")


def _cmd_repl(args, bases, defs) -> int:
    print("basis-sensitive lambda calculus; :h for help, :q to quit")
    while True:
        try:
            line = input("lb> ")
        except EOFError:
            print()
            break
        line = line.strip()
        if not line:
            continue
        if line in (":q", ":quit"):
            break
        if line in (":h", ":help"):
            print(_REPL_HELP)
            continue
        try:
            with session():  # each line is a command of its own
                _repl_line(line, bases, defs)
        except (ParseError, CheckError, UnitaryError, ValueError) as e:
            print(f"error: {e}")
        except RecursionError:
            print(f"error: {TOO_DEEP}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing.


class _Parser(argparse.ArgumentParser):
    """Reads an argument that starts with a single '-' and is not an
    option of the parser, such as the term "-|1>", as a positional."""

    def _parse_optional(self, arg_string):
        if (
            arg_string.startswith("-")
            and not arg_string.startswith("--")
            and arg_string not in self._option_string_actions
        ):
            return None
        return super()._parse_optional(arg_string)


# Each subcommand: its name, its help, its positionals (dest, metavar)
# and its handler; and the one flag of its own that a command may take.
_TERM = ("term", "TERM")
_TYPE = ("type_", "TYPE")
_COMMANDS = (
    ("parse", "parse a term and print its canonical form", (_TERM,),
     _cmd_parse),
    ("eval", "reduce a term to normal form", (_TERM,), _cmd_eval),
    ("check", "check a closed term against a type", (_TERM, _TYPE),
     _cmd_check),
    ("ortho", "decide the orthogonality judgement for two terms",
     (("left", "TERM"), ("right", "TERM"), _TYPE), _cmd_ortho),
    ("unitary", "extract the matrix of an abstraction and test unitarity",
     (_TERM,), _cmd_unitary),
    ("repl", "interactive read-eval loop", (), _cmd_repl),
    ("corpus", "run the bundled example corpus and print a result table",
     (), _cmd_corpus),
)
_FLAGS = {
    "parse": ("--type", "treat the input as a type instead of a term"),
    "eval": ("--trace", "print every reduction step"),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built on first use: parse_args gives
    a fresh namespace each call and copies the --def list before it
    appends, so one parser serves any number of calls."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--max-steps",
        type=int,
        default=Settings.max_steps,
        metavar="N",
        help="evaluation fuel: the step bound of every evaluation, also "
        "those inside membership, subtyping, checking and matrix "
        "extraction (default %(default)s)",
    )
    common.add_argument(
        "--eps",
        type=float,
        default=Settings.eps,
        metavar="E",
        help="tolerance of every scalar comparison, of zero-pruning and "
        "of symbolic coefficient printing; the unitary gram verdict "
        f"keeps its own {GRAM_TOL:g} (default %(default)s)",
    )
    common.add_argument(
        "--json",
        action="store_true",
        help="emit a JSON object instead of text",
    )
    common.add_argument(
        "--def",
        dest="def_files",
        action="append",
        default=[],
        metavar="FILE",
        help="load named definitions and bases from a program file "
        "(repeatable)",
    )

    parser = _Parser(
        prog="basislam",
        description="Evaluate, type-check, and analyze terms of a "
        "basis-sensitive quantum lambda calculus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text, positionals, handler in _COMMANDS:
        p = sub.add_parser(name, parents=[common], help=text)
        for dest, metavar in positionals:
            p.add_argument(dest, metavar=metavar)
        if name in _FLAGS:
            flag, flag_help = _FLAGS[name]
            p.add_argument(flag, action="store_true", help=flag_help)
        p.set_defaults(handler=handler)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command under the settings --eps and --max-steps give."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        settings = Settings(eps=args.eps, max_steps=args.max_steps)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR
    try:
        with local_settings(settings):
            bases, defs = _environment(args.def_files)
            if args.handler is _cmd_repl:  # a session per line
                return _cmd_repl(args, bases, defs)
            with session():
                report = args.handler(args, bases, defs)
            if args.json:
                print(json.dumps(report.payload, allow_nan=False))
            else:
                print("\n".join(report.lines))
            return report.code
    except (ParseError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR
    except RecursionError:
        print(f"error: {TOO_DEEP}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
