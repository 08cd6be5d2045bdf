"""Concrete syntax: exact printer output, parse/print round trips,
positioned errors, and program files."""

import dataclasses
import gc
import hashlib
import json
import pathlib
import random
import re
import time
import tracemalloc

import numpy as np
import pytest

import gen
import oracles
from basislam import core, syntax
from basislam.basis import KET_MINUS, KET_PLUS
from basislam.core import Ket, add, dist_eq, is_closed, scale, single, sub
from basislam.corpus import (
    CORPUS_NAMES,
    corpus_program,
    corpus_text,
    load_corpus,
)
from basislam.reduction import evaluate
from basislam.syntax import (
    ParseError,
    load_program,
    parse_program,
    parse_term,
    parse_type,
    print_term,
    print_type,
)


class TestPrinting:
    def test_plus_state(self):
        assert print_term(KET_PLUS) == "(1/sqrt2)*|0> + (1/sqrt2)*|1>"

    def test_minus_state(self):
        assert print_term(KET_MINUS) == "(1/sqrt2)*|0> - (1/sqrt2)*|1>"

    def test_negated_ket(self):
        assert print_term(scale(-1.0, single(Ket(1)))) == "- |1>"

    def test_ket_pairs_merge(self):
        d = parse_term("(1/2)*(|0>, |0>) + (1/2)*(|1>, |1>)")
        assert print_term(d) == "(1/2)*|00> + (1/2)*|11>"

    def test_plain_decimal_coefficients(self):
        d = parse_term("0.6*|0> + 0.8*|1>")
        assert print_term(d) == "0.6*|0> + 0.8*|1>"

    def test_abstraction_with_case(self, gates_prog):
        assert print_term(gates_prog.defs["Z"]) == (
            "\\x:B. case x of { |0> -> |0> | |1> -> - |1> }"
        )

    @pytest.mark.parametrize(
        "ty",
        [
            "[B]",
            "#[B]",
            "[B] -> [B]",
            "#[B] -> #([B] * [B])",
            "([X] -> [X] -> [X] * [X]) -> [B]",
            "#[B] * #[B]",
        ],
    )
    def test_type_round_trip(self, ty):
        assert print_type(parse_type(ty)) == ty


    def test_nested_binders_print_once(self, monkeypatch):
        # each binder body is rendered once, so printing stays linear in
        # the nesting depth
        src = "\\x:B. " * 20 + "x"
        d = parse_term(src)
        calls = []
        original = syntax.print_term

        def counting(t):
            calls.append(t)
            return original(t)

        monkeypatch.setattr(syntax, "print_term", counting)
        assert syntax.print_term(d) == src
        assert len(calls) <= 21


class TestScalarsAndLiterals:
    def test_exponential_scalar(self):
        d = parse_term("e^(i*0.5) * |0>")
        assert np.allclose(
            oracles.dist_vector(d, 1), np.exp(0.5j) * oracles.KET0
        )

    def test_exponent_literals(self):
        assert [t.text for t in syntax.tokenize("1e-05 2.5E+12 7e3")] == [
            "1e-05", "2.5E+12", "7e3", "",
        ]
        d = parse_term("1e-05*|0> + 2.5E+12*|1>")
        assert np.allclose(
            oracles.dist_vector(d, 1), np.array([1e-05, 2.5e12])
        )
        # an `e` that no digits follow is the exponential or a name
        kinds = [(t.kind, t.text) for t in syntax.tokenize("2e^(i) 1e")]
        assert kinds[:4] == [
            ("num", "2"), ("ident", "e"), ("op", "^"), ("op", "("),
        ]
        assert kinds[-3:] == [("num", "1"), ("ident", "e"), ("eof", "")]
        assert np.allclose(
            oracles.dist_vector(parse_term("2*e^(i) * |0>"), 1),
            2 * np.exp(1j) * oracles.KET0,
        )

    def test_basis_literal_annotation(self):
        # the literal {|+>, |->} acts as the X basis: |0> is decomposed
        # over it before it is duplicated
        d = parse_term("(\\x:{|+>, |->}. (x, x)) |0>")
        out = evaluate(d).final.dist
        expect = (
            oracles.kron(oracles.PLUS, oracles.PLUS)
            + oracles.kron(oracles.MINUS, oracles.MINUS)
        ) / np.sqrt(2.0)
        assert np.allclose(oracles.dist_vector(out, 2), expect)

    def test_basis_literal_error_at_brace(self):
        with pytest.raises(ParseError) as e:
            parse_term("\\x:{|0>, |+>}. x")
        assert "not orthogonal" in str(e.value)
        assert (e.value.line, e.value.col) == (1, 4)
        with pytest.raises(ParseError) as e:
            parse_program("basis Y = { |0>, |+> }")
        assert (e.value.line, e.value.col) == (1, 11)


class TestRoundTrip:
    def test_multi_ket_sugar(self):
        assert dist_eq(parse_term("|01>"), parse_term("(|0>, |1>)"))
        # multi-kets nest to the right
        assert dist_eq(
            parse_term("|110>"), parse_term("(|1>, (|1>, |0>))")
        )

    def test_generated_terms(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            d, _, _ = gen.closed_term(rng)
            again = parse_term(print_term(d))
            assert dist_eq(d, again), print_term(d)

    def test_random_states(self):
        rng = np.random.default_rng(12)
        for n in (1, 2):
            for _ in range(10):
                d = gen.random_state(rng, n)
                assert dist_eq(d, parse_term(print_term(d)))

    def test_exponent_scalars(self):
        # Twelve significant digits put magnitudes below 1e-4 and from
        # 1e12 up in exponent form, also inside a complex coefficient.
        # Equal at the printed precision: compared with c divided out.
        rng = np.random.default_rng(13)
        texts = []
        for _ in range(20):
            d, _, _ = gen.closed_term(rng)
            tiny = 10.0 ** rng.uniform(-8, -5)
            huge = 10.0 ** rng.uniform(12, 15)
            for c in (
                tiny,
                huge,
                complex(tiny, rng.normal()),
                complex(rng.normal(), 1.0) * huge,
            ):
                scaled = scale(c, d)
                texts.append(print_term(scaled))
                again = parse_term(texts[-1])
                assert dist_eq(scale(1 / c, scaled), scale(1 / c, again)), (
                    texts[-1]
                )
        assert any("e-0" in t for t in texts)
        assert any("e+1" in t for t in texts)
        assert any("e-0" in t and "*i)" in t for t in texts)

    def test_gate_definitions(self, gates_prog):
        for name, d in gates_prog.defs.items():
            assert dist_eq(d, parse_term(print_term(d))), name


class TestErrors:
    @pytest.mark.parametrize(
        "src,fragment",
        [
            ("|2>", "unexpected character"),
            ("(|0>", "expected ')'"),
            ("", "expected a term"),
            ("\\let:B. |0>", "expected a name"),
            ("|0> ,", "trailing input after term"),
        ],
    )
    def test_term_errors(self, src, fragment):
        with pytest.raises(ParseError) as e:
            parse_term(src)
        assert fragment in str(e.value)

    def test_unknown_basis_positioned(self):
        with pytest.raises(ParseError) as e:
            parse_term("\\x:Q. x", path="demo.lb")
        assert str(e.value) == "demo.lb:1:4: unknown basis 'Q'"
        assert (e.value.line, e.value.col) == (1, 4)

    def test_type_error_positioned(self):
        with pytest.raises(ParseError) as e:
            parse_type("[B] ->")
        assert str(e.value) == "1:7: expected a type"

    # One input for each error that points at a token other than the
    # next one: path, line, column and message exactly.
    @pytest.mark.parametrize(
        "parse, src, want",
        [
            (
                parse_term,
                "(|0>, 1e200 * (1e200 * |0>))",
                "demo.lb:1:7: coefficient is not finite",
            ),
            (
                parse_term,
                "\\f:B. let (x:B, x:B) = (|0>, |1>) in x",
                "demo.lb:1:17: let pair binders must be distinct",
            ),
            (
                parse_term,
                "(|1>, case |0> of {|0> -> |0> | |0> -> |1>})",
                "demo.lb:1:19: case patterns 0 and 1 are not orthogonal",
            ),
            (
                parse_term,
                "\\x:@foo. x",
                "demo.lb:1:5: the only abstract annotation is @fun",
            ),
            (parse_term, "\\x:B. \\y:Q. x", "demo.lb:1:10: unknown basis 'Q'"),
            (
                parse_term,
                "\\x:{|0>, |0>}. x",
                "demo.lb:1:4: basis elements 0 and 1 not orthogonal",
            ),
            (
                parse_program,
                "def A = |0>\n  basis B = {|0>, |1>}",
                "demo.lb:2:9: basis 'B' is already defined",
            ),
            (
                parse_program,
                "def F = |0>\n def F = |1>",
                "demo.lb:2:6: def 'F' is already defined",
            ),
            (
                parse_program,
                "def F = |0>\ngoal  G : [B]",
                "demo.lb:2:7: goal names an unknown def 'G'",
            ),
        ],
    )
    def test_error_at_a_token(self, parse, src, want):
        with pytest.raises(ParseError) as e:
            parse(src, path="demo.lb")
        assert str(e.value) == want

    def test_error_carries_position_fields(self):
        with pytest.raises(ParseError) as e:
            parse_term("case |0> of { }")
        assert e.value.line == 1
        assert e.value.col > 1


class TestPrograms:
    SOURCE = """\
-- a tiny program with its own basis
basis Y = { (1/sqrt2)*|0> + (1/sqrt2)*|1>,
            (1/sqrt2)*|0> - (1/sqrt2)*|1> }

def F = \\x:Y. x   -- identity over the new basis
def G = (F |+>, |0>)

goal F : [Y] -> [Y]
goal F : #[Y] -> #[Y]
"""

    def test_program_sections(self):
        prog = parse_program(self.SOURCE)
        assert set(prog.bases) == {"Y"}
        assert set(prog.defs) == {"F", "G"}
        assert [g.name for g in prog.goals] == ["F", "F"]
        assert prog.goals[0].line == 8
        assert "Y" in prog.all_bases() and "B" in prog.all_bases()

    def test_definitions_are_inlined(self):
        prog = parse_program("def A = |0>\ndef C = (A, A)")
        assert is_closed(prog.defs["C"])
        assert dist_eq(prog.defs["C"], parse_term("(|0>, |0>)"))

    def test_goal_types_use_program_bases(self):
        prog = parse_program(self.SOURCE)
        assert print_type(prog.goals[0].type) == "[Y] -> [Y]"

    def test_load_program_reports_path(self, tmp_path):
        target = tmp_path / "prog.lb"
        target.write_text(self.SOURCE + "goal H : [B]\n")
        with pytest.raises(ParseError) as e:
            load_program(str(target))
        assert str(e.value).startswith(f"{target}:")
        assert "unknown def 'H'" in str(e.value)

    def test_load_program_round_trip(self, tmp_path):
        target = tmp_path / "prog.lb"
        target.write_text(self.SOURCE)
        prog = load_program(str(target))
        assert set(prog.defs) == {"F", "G"}

    def test_duplicate_definition(self):
        with pytest.raises(ParseError) as e:
            parse_program("def F = |0>\ndef F = |1>")
        assert "def 'F' is already defined" in str(e.value)
        assert e.value.line == 2

    def test_builtin_basis_not_redefinable(self):
        with pytest.raises(ParseError) as e:
            parse_program("basis B = { |0>, |1> }")
        assert "basis 'B' is already defined" in str(e.value)

    def test_basis_must_be_orthonormal(self):
        src = "basis Y = { |0>, (1/sqrt2)*|0> + (1/sqrt2)*|1> }"
        with pytest.raises(ParseError) as e:
            parse_program(src)
        assert "not orthogonal" in str(e.value)

    def test_comments_ignored(self):
        prog = parse_program("-- nothing here\ndef A = |0> -- tail\n")
        assert dist_eq(prog.defs["A"], single(Ket(0)))


# ---------------------------------------------------------------------------
# A sum is parsed into one construction of its operands.  The reference is
# the earlier loop, a running sum: one add (or sub) per operand.


class RunningSumParser(syntax._Parser):
    def term(self):
        start = self.peek()
        negate = False
        if self.at_op("-"):
            self.next()
            negate = True
        # finite scalars can still overflow in a product or a sum
        try:
            value = self.product()
            if negate:
                value = scale(-1.0, value)
            while self.at_op("+") or self.at_op("-"):
                op = self.next().text
                rhs = self.product()
                value = add(value, rhs) if op == "+" else sub(value, rhs)
        except OverflowError:
            raise ParseError(
                "coefficient is not finite", start.line, start.col, self.path
            ) from None
        return value


def ref_parse_term(text, defs=None):
    p = RunningSumParser(
        syntax.tokenize(text), syntax._default_bases(), defs or {}
    )
    out = p.term()
    assert p.peek().kind == "eof"
    return out


def bits(x):
    """Every field of a term, with each coefficient as the hex of its two
    floats."""
    if isinstance(x, complex):
        return (x.real.hex(), x.imag.hex())
    if isinstance(x, tuple):
        return tuple(bits(y) for y in x)
    if dataclasses.is_dataclass(x):
        return (type(x).__name__,) + tuple(
            bits(getattr(x, f.name)) for f in dataclasses.fields(x)
        )
    return x


GATES = corpus_program("gates").defs
# pairwise distinct pure terms, so a partial sum is per atom
ATOMS = [
    "|0>", "|1>", "|01>", "(|1>, (|0>, |1>))", "NOT |0>", "Hd |1>",
    "(\\x:B. x)", "(\\x:B. 0.6*x - 0.8*|1>)", "(NOT |0>, |1>)", "x",
    "(x, |0>)",
]


def random_sum(rng):
    """A sum of scaled atoms, atoms repeated, in which no partial sum of
    one atom comes near zero."""
    partial = [0.0] * len(ATOMS)
    parts = []
    for k in range(int(rng.integers(2, 12))):
        while True:
            atom = int(rng.integers(len(ATOMS)))
            a = round(float(rng.uniform(0.05, 2.0)), int(rng.integers(1, 7)))
            sign = -1 if rng.random() < 0.4 else 1
            if abs(partial[atom] + sign * a) > 1e-6:
                break
        partial[atom] += sign * a
        op = "- " if sign < 0 else ("+ " if k else "")
        scalar = [f"{a}*", f"{a}*e^(i*0.25)*", f"{a}*(1/sqrt2)*"][
            int(rng.integers(3))
        ]
        parts.append(f"{op}{scalar}{ATOMS[atom]}")
    return " ".join(parts)


class TestSums:
    def test_generated_sums_match_the_running_sum(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            src = random_sum(rng)
            want = bits(ref_parse_term(src, GATES).entries)
            assert bits(parse_term(src, defs=GATES).entries) == want, src

    def test_printed_terms_match_the_running_sum(self):
        rng = np.random.default_rng(22)
        for _ in range(40):
            for d in (gen.closed_term(rng)[0], gen.random_state(rng, 2)):
                src = print_term(d)
                assert bits(parse_term(src).entries) == bits(
                    ref_parse_term(src).entries
                ), src

    def test_a_pruned_partial_sum_is_kept(self):
        # the one difference: the running sum prunes 0.5 - 0.4999999999995,
        # within eps of zero, before 0.3 is added; one construction adds
        # all three
        src = "0.5*|0> - 0.4999999999995*|0> + 0.3*|0>"
        assert ref_parse_term(src).entries[0][1] == 0.3
        [(_, c)] = parse_term(src).entries
        assert c == (0.5 + 0j) + -1 * (0.4999999999995 + 0j) + (0.3 + 0j)
        assert c != 0.3

    @pytest.mark.parametrize("n", [6, 7])
    def test_work_is_linear_in_the_summands(self, monkeypatch, n):
        src = " + ".join(
            f"0.01*|{format(i, f'0{n}b')}>" for i in range(2 ** n)
        )
        entries = 0
        build = core._build

        def counted(pairs):
            nonlocal entries
            pairs = list(pairs)
            entries += len(pairs)
            return build(pairs)

        monkeypatch.setattr(core, "_build", counted)
        assert len(parse_term(src)) == 2 ** n
        # per summand: n - 1 pairs, its scale, and one entry of the sum;
        # the running sum fed about n_summands ** 2 / 2
        assert entries <= (n + 2) * 2 ** n


# ---------------------------------------------------------------------------
# The tokenizer makes one match per token.  The reference is the earlier
# loop: one match per blank run, comment or token, with the position
# advanced lexeme by lexeme.

_REF_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r\n]+)
  | (?P<comment>--[^\n]*)
  | (?P<ket>\|(?:[01]+|\+|-)\>)
  | (?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
  | (?P<op>->|<=|[\\:.(),{}|=*+\-/#\[\]@^])
    """,
    re.VERBOSE,
)


def ref_tokenize(text, path=""):
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _REF_TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(
                f"unexpected character {text[pos]!r}", line, col, path
            )
        lexeme = m.group(0)
        kind = m.lastgroup
        if kind not in ("ws", "comment"):
            tokens.append((kind, lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(("eof", "", line, col))
    return tokens


def lexed(tokenize, text):
    """(kind, text, line, col) of every token, or the error message."""
    try:
        return [tuple(t) for t in tokenize(text, "f.lb")]
    except ParseError as e:
        return str(e)


TESTS = pathlib.Path(__file__).resolve().parent
LEXEMES = [
    " ", "   ", "\t", "\n", "\r\n", "\r", "-- note", "--", "--|0> x",
    "-", "->", "<=", "<", ">", "|", "|0>", "|01>", "|+>", "|->", "|2>",
    "|0", "0", "12", "0.5", "3.", ".5", "1e-05", "2.5E+12", "7e3", "1e",
    "e^(", "i", "sqrt2", "x", "x'", "_y", "let", "\\", ":", ".", "(",
    ")", ",", "{", "}", "=", "*", "+", "/", "#", "[", "]", "@", "^", "é",
    "λ", "∘", "$", "\x0b", "\u00a0", "\u0663",
]


def random_source(rng):
    return "".join(rng.choice(LEXEMES) for _ in range(rng.randrange(16)))


class TestTokenizer:
    def test_corpus_and_golden_inputs_match_the_reference(self):
        golden = json.loads((TESTS / "golden_cli.json").read_text("utf-8"))
        texts = [corpus_text(name) for name in CORPUS_NAMES]
        texts += [arg for g in golden for arg in g["argv"]]
        for text in texts:
            assert lexed(syntax.tokenize, text) == lexed(ref_tokenize, text)

    def test_generated_sources_match_the_reference(self):
        rng = random.Random(21)
        outcomes = {str: 0, list: 0}
        for _ in range(20_000):
            text = random_source(rng)
            want = lexed(ref_tokenize, text)
            assert lexed(syntax.tokenize, text) == want, repr(text)
            outcomes[type(want)] += 1
        # both token lists and positioned errors are compared
        assert min(outcomes.values()) > 5_000

    @pytest.mark.parametrize(
        "text",
        [
            " " * 2**20,
            " " * 2**20 + "$",
            "--" + "x" * 2**20,
            "--" + "-" * 2**20 + "\n$",
            "-- c\n" * (2**20 // 5) + "$",
            "\r\n\t" * (2**20 // 3) + "a",
        ],
        ids=["blanks", "blanks-bad", "comment", "dashes-bad", "lines", "crlf"],
    )
    def test_megabyte_of_blanks_or_comment_is_linear(self, text):
        start = time.perf_counter()
        out = lexed(syntax.tokenize, text)
        # about 10 ms here; a backtracking prefix would take hours
        assert time.perf_counter() - start < 2.0
        assert out == lexed(ref_tokenize, text)


# ---------------------------------------------------------------------------
# Loading a program builds no exception that it does not raise: a scalar
# attempt that fails backtracks on a private exception.

GATES_LB = str(pathlib.Path(syntax.__file__).parent / "corpus" / "gates.lb")


class TestLoader:
    def test_loading_builds_no_parse_error(self, monkeypatch):
        built = 0
        init = ParseError.__init__

        def counted(self, *args):
            nonlocal built
            built += 1
            init(self, *args)

        monkeypatch.setattr(ParseError, "__init__", counted)
        load_program(GATES_LB)
        load_corpus()
        assert built == 0
        with pytest.raises(ParseError):
            parse_term("0.5 * ")
        assert built == 1

    def test_memory_is_flat_over_loads(self):
        # a reused exception instance would keep the frames of every
        # raise alive in its traceback
        tracemalloc.start()
        try:
            for _ in range(20):
                load_program(GATES_LB)
            gc.collect()
            base = tracemalloc.get_traced_memory()[0]
            for _ in range(500):
                load_program(GATES_LB)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert grown < 64 * 1024

    def test_printed_corpus_programs_are_unchanged(self):
        lines = []
        for name in CORPUS_NAMES:
            prog = corpus_program(name)
            lines += [
                f"basis {k} = {{{', '.join(map(print_term, b.elements))}}}"
                for k, b in prog.bases.items()
            ]
            lines += [f"def {k} = {print_term(d)}" for k, d in prog.defs.items()]
            lines += [f"goal {g.name} : {print_type(g.type)}" for g in prog.goals]
        text = "\n".join(lines)
        # the printed forms before scalars backtracked on a private exception
        assert (len(lines), len(text)) == (53, 7591)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "c752d17a799104e2f156b3b06a45c18b4d232fcc2484faee543b1d81afbcffe2"
        )
