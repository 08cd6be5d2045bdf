"""Concrete syntax: lexer, parser, and printer.

Terms are written with backslash lambdas annotated by a basis, kets as
bit strings between pipe and angle bracket (with plus and minus sugar
for the two Hadamard-basis states), juxtaposition for application, and
explicit scalar coefficients.  A scalar is only ever attached with a
star, so a parenthesized expression is re-read as a coefficient exactly
when it is built from numbers, i, sqrt2, and the exponential form.
A number may carry a decimal exponent, `1e-05` or `2.5E+12`: the printer
writes a coefficient to twelve significant digits, in exponent form below
1e-4 and from 1e12 up, and the lexer reads that form back.  An `e` that
no digits follow is the base of `e^(...)` or a name.

Program files hold three kinds of statements: basis declarations,
definitions, and typing goals.  Double dash comments run to the end of
the line.  All errors carry line and column positions.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

from .core import (
    ABS,
    Basis,
    Case,
    App,
    Ket,
    Lam,
    LetPair,
    Ortho,
    Pair,
    PureTerm,
    TermDist,
    Var,
    combine,
    mk_app,
    mk_case,
    mk_lam,
    mk_letpair,
    mk_pair,
    sc_eq,
    scale,
    single,
)
from .basis import (
    BasisError,
    KET_MINUS,
    KET_PLUS,
    NAMED_BASES,
    ket_bits,
    multi_ket,
    validate_basis,
)
from .typesem import Arrow, BasisType, Prod, Sharp, Type

RESERVED = frozenset({"let", "in", "case", "of", "def", "basis", "goal"})


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int, path: str = ""):
        self.message = message
        self.line = line
        self.col = col
        self.path = path
        where = f"{path}:" if path else ""
        super().__init__(f"{where}{line}:{col}: {message}")


class _NoScalar(Exception):
    """The tokens do not form a scalar.  Raised fresh each time: a reused
    instance keeps every frame it passed through alive in its traceback."""


class Token(NamedTuple):
    kind: str  # ket, num, ident, op, eof
    text: str
    line: int
    col: int


# One match per token: blanks and comments are a prefix of the token,
# the end of input is the eof token, and any other character is bad.
_TOKEN_RE = re.compile(
    r"""
    (?:[ \t\r\n]+|--[^\n]*)*
    (?:
        (?P<ket>\|(?:[01]+|\+|-)\>)
      | (?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
      | (?P<op>->|<=|[\\:.(),{}|=*+\-/#\[\]@^])
      | (?P<eof>\Z)
      | (?P<bad>.)
    )
    """,
    re.VERBOSE,
)


def tokenize(text: str, path: str = "") -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        start = m.start(kind)
        newlines = text.count("\n", m.start(), start)
        if newlines:  # only the prefix can hold a line break
            line += newlines
            line_start = text.rindex("\n", 0, start) + 1
        col = start - line_start + 1
        if kind == "bad":
            raise ParseError(f"unexpected character {m[kind]!r}", line, col, path)
        tokens.append(Token(kind, m[kind], line, col))
        if kind == "eof":
            break
    return tokens


_SQRT2 = math.sqrt(2.0)
_SCALAR_STARTS = frozenset({"-", "(", "i", "sqrt2", "e"})


class _Parser:
    def __init__(
        self,
        tokens: list[Token],
        bases: dict[str, Ortho],
        defs: dict[str, TermDist],
        path: str = "",
    ):
        self.tokens = tokens
        self.pos = 0
        self.bases = bases
        self.defs = defs
        self.path = path

    # -- token plumbing -------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at_op(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.text == text

    def at_word(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and tok.text == word

    def expect_op(self, text: str) -> Token:
        if not self.at_op(text):
            self.err(f"expected {text!r}")
        return self.next()

    def expect_ident(self) -> Token:
        tok = self.peek()
        if tok.kind != "ident" or tok.text in RESERVED:
            self.err("expected a name")
        return self.next()

    def err(self, message: str):
        self.unusable(message, self.peek())

    def unusable(self, message: str, tok: Token):
        """Raise the parse error at tok; the exception being handled, if
        any, is not chained, since the message says all there is."""
        raise ParseError(message, tok.line, tok.col, self.path) from None

    # -- scalars ----------------------------------------------------------
    # Scalar syntax overlaps term syntax, so a scalar is tried and the
    # parse backtracks when the tokens do not form one.  A scalar that
    # parses but has no finite value is an error at once.

    def attempt(self, parse: Callable[[], complex]) -> Optional[complex]:
        """parse(), or None with the position restored when the tokens
        do not form a scalar."""
        mark = self.pos
        try:
            return parse()
        except _NoScalar:
            self.pos = mark
            return None

    def scalar_op(self, text: str) -> None:
        if not self.at_op(text):
            raise _NoScalar
        self.pos += 1

    def require_finite(self, value: complex, tok: Token) -> complex:
        if not cmath.isfinite(value):
            self.unusable("scalar is not finite", tok)
        return value

    def try_scalar(self) -> Optional[complex]:
        tok = self.peek()
        if tok.kind == "num" or tok.text in _SCALAR_STARTS:
            return self.attempt(self.scalar_sum)
        return None

    def scalar_sum(self) -> complex:
        value = self.scalar_prod()
        while self.at_op("+") or self.at_op("-"):
            mark = self.pos
            op = self.next()
            rhs = self.attempt(self.scalar_prod)
            if rhs is None:
                self.pos = mark
                break
            value = self.require_finite(
                value + rhs if op.text == "+" else value - rhs, op
            )
        return value

    def scalar_prod(self) -> complex:
        value = self.scalar_atom()
        while self.at_op("*") or self.at_op("/"):
            mark = self.pos
            op = self.next()
            rhs = self.attempt(self.scalar_atom)
            if rhs is None:
                self.pos = mark
                break
            if op.text == "*":
                value = self.require_finite(value * rhs, op)
            elif rhs == 0:
                self.unusable("division by zero", op)
            else:
                value = self.require_finite(value / rhs, op)
        return value

    def scalar_atom(self) -> complex:
        tok = self.peek()
        if tok.kind == "num":
            self.next()
            return self.require_finite(complex(float(tok.text)), tok)
        if tok.kind == "op" and tok.text == "-":
            self.next()
            return -self.scalar_atom()
        if tok.kind == "op" and tok.text == "(":
            self.next()
            value = self.scalar_sum()
            self.scalar_op(")")
            return value
        if tok.kind == "ident":
            if tok.text == "i":
                self.next()
                return 1j
            if tok.text == "sqrt2":
                self.next()
                return complex(_SQRT2)
            if tok.text == "e":
                mark = self.pos
                self.next()
                if self.at_op("^"):
                    self.next()
                    self.scalar_op("(")
                    value = self.scalar_sum()
                    self.scalar_op(")")
                    try:
                        return cmath.exp(value)
                    except OverflowError:
                        self.unusable("scalar is not finite", tok)
                self.pos = mark
        raise _NoScalar

    # -- terms -----------------------------------------------------------

    def term(self) -> TermDist:
        start = self.peek()
        negate = False
        if self.at_op("-"):
            self.next()
            negate = True
        # finite scalars can still overflow in a product or a sum
        try:
            value = self.product()
            pieces = [(-1.0 if negate else None, value)]
            while self.at_op("+") or self.at_op("-"):
                op = self.next().text
                pieces.append((None if op == "+" else -1, self.product()))
            if len(pieces) > 1:  # one construction, not a running sum
                value = combine(pieces)
            elif negate:
                value = scale(-1.0, value)
        except OverflowError:
            self.unusable("coefficient is not finite", start)
        return value

    def product(self) -> TermDist:
        mark = self.pos
        coeff = self.try_scalar()
        if coeff is not None and self.at_op("*"):
            self.next()
            return scale(coeff, self.product())
        self.pos = mark
        return self.juxt()

    def juxt(self) -> TermDist:
        value = self.head()
        while True:
            tok = self.peek()
            if tok.kind == "ket":
                value = mk_app(value, self.head())
            elif tok.kind == "ident" and tok.text not in RESERVED:
                value = mk_app(value, self.head())
            elif tok.kind == "op" and tok.text == "(":
                value = mk_app(value, self.head())
            else:
                return value

    def head(self) -> TermDist:
        tok = self.peek()
        if tok.kind == "ket":
            self.next()
            return self.ket(tok)
        if tok.kind == "ident":
            if tok.text == "let":
                return self.let()
            if tok.text == "case":
                return self.case()
            if tok.text in RESERVED:
                self.err(f"unexpected keyword {tok.text!r}")
            self.next()
            if tok.text in self.defs:
                return self.defs[tok.text]
            return single(Var(tok.text))
        if tok.kind == "op" and tok.text == "\\":
            return self.lam()
        if tok.kind == "op" and tok.text == "(":
            self.next()
            first = self.term()
            if self.at_op(","):
                self.next()
                second = self.term()
                self.expect_op(")")
                return mk_pair(first, second)
            self.expect_op(")")
            return first
        self.err("expected a term")
        raise AssertionError

    def ket(self, tok: Token) -> TermDist:
        payload = tok.text[1:-1]
        if payload == "+":
            return KET_PLUS
        if payload == "-":
            return KET_MINUS
        return multi_ket(payload)

    def lam(self) -> TermDist:
        self.expect_op("\\")
        name = self.expect_ident()
        self.expect_op(":")
        basis = self.basis()
        self.expect_op(".")
        body = self.term()
        return mk_lam(name.text, basis, body)

    def let(self) -> TermDist:
        self.next()  # let
        self.expect_op("(")
        n1 = self.expect_ident()
        self.expect_op(":")
        b1 = self.basis()
        self.expect_op(",")
        n2 = self.expect_ident()
        self.expect_op(":")
        b2 = self.basis()
        self.expect_op(")")
        self.expect_op("=")
        scrutinee = self.term()
        if not self.at_word("in"):
            self.err("expected 'in'")
        self.next()
        body = self.term()
        if n1.text == n2.text:
            self.unusable("let pair binders must be distinct", n2)
        return mk_letpair(n1.text, b1, n2.text, b2, scrutinee, body)

    def case(self) -> TermDist:
        self.next()  # case
        scrutinee = self.term()
        if not self.at_word("of"):
            self.err("expected 'of'")
        self.next()
        brace = self.peek()
        self.expect_op("{")
        patterns: list[TermDist] = []
        branches: list[TermDist] = []
        while True:
            patterns.append(self.term())
            self.expect_op("->")
            branches.append(self.term())
            if self.at_op("|"):
                self.next()
                continue
            break
        self.expect_op("}")
        try:
            return mk_case(scrutinee, patterns, branches)
        except ValueError as e:
            self.unusable(str(e), brace)

    # -- bases and types ---------------------------------------------------

    def basis(self, allow_abs: bool = True) -> Basis:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "@":
            if not allow_abs:
                self.err("a basis literal is required here")
            self.next()
            word = self.expect_ident()
            if word.text != "fun":
                self.unusable("the only abstract annotation is @fun", word)
            return ABS
        if tok.kind == "op" and tok.text == "{":
            return self.basis_literal()
        if tok.kind == "ident" and tok.text not in RESERVED:
            self.next()
            if tok.text in self.bases:
                return self.bases[tok.text]
            self.unusable(f"unknown basis {tok.text!r}", tok)
        self.err("expected a basis")
        raise AssertionError

    def basis_literal(self, name: Optional[str] = None) -> Ortho:
        """A braced orthonormal family; its errors point at the brace."""
        brace = self.peek()
        self.expect_op("{")
        elements = [self.term()]
        while self.at_op(","):
            self.next()
            elements.append(self.term())
        self.expect_op("}")
        try:
            basis = Ortho(tuple(elements), name)
            validate_basis(basis)
        except (BasisError, ValueError) as e:
            self.unusable(str(e), brace)
        return basis

    def type_(self) -> Type:
        left = self.type_prod()
        if self.at_op("->"):
            self.next()
            return Arrow(left, self.type_())
        return left

    def type_prod(self) -> Type:
        left = self.type_atom()
        if self.at_op("*"):
            self.next()
            return Prod(left, self.type_prod())
        return left

    def type_atom(self) -> Type:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "#":
            self.next()
            return Sharp(self.type_atom())
        if tok.kind == "op" and tok.text == "[":
            self.next()
            basis = self.basis(allow_abs=False)
            self.expect_op("]")
            if not isinstance(basis, Ortho):
                self.err("a basis literal is required here")
            return BasisType(basis)
        if tok.kind == "op" and tok.text == "(":
            self.next()
            inner = self.type_()
            self.expect_op(")")
            return inner
        self.err("expected a type")
        raise AssertionError


def _default_bases() -> dict[str, Ortho]:
    return dict(NAMED_BASES)


def parse_term(
    text: str,
    bases: Optional[dict[str, Ortho]] = None,
    defs: Optional[dict[str, TermDist]] = None,
    path: str = "",
) -> TermDist:
    p = _Parser(
        tokenize(text, path),
        bases if bases is not None else _default_bases(),
        defs if defs is not None else {},
        path,
    )
    out = p.term()
    if p.peek().kind != "eof":
        p.err("trailing input after term")
    return out


def parse_type(
    text: str,
    bases: Optional[dict[str, Ortho]] = None,
    path: str = "",
) -> Type:
    p = _Parser(
        tokenize(text, path),
        bases if bases is not None else _default_bases(),
        {},
        path,
    )
    out = p.type_()
    if p.peek().kind != "eof":
        p.err("trailing input after type")
    return out


# ---------------------------------------------------------------------------
# Program files.


@dataclass
class Goal:
    name: str
    type: Type
    line: int


@dataclass
class Program:
    bases: dict[str, Ortho] = field(default_factory=dict)
    defs: dict[str, TermDist] = field(default_factory=dict)
    goals: list[Goal] = field(default_factory=list)

    def all_bases(self) -> dict[str, Ortho]:
        merged = _default_bases()
        merged.update(self.bases)
        return merged


def parse_program(text: str, path: str = "") -> Program:
    program = Program()
    merged_bases = _default_bases()
    p = _Parser(tokenize(text, path), merged_bases, program.defs, path)
    while p.peek().kind != "eof":
        tok = p.peek()
        if tok.kind != "ident":
            p.err("expected a statement: basis, def, or goal")
        if tok.text == "basis":
            p.next()
            name = p.expect_ident()
            if name.text in merged_bases:
                p.unusable(f"basis {name.text!r} is already defined", name)
            p.expect_op("=")
            basis = p.basis_literal(name.text)
            merged_bases[name.text] = basis
            program.bases[name.text] = basis
        elif tok.text == "def":
            p.next()
            name = p.expect_ident()
            if name.text in program.defs:
                p.unusable(f"def {name.text!r} is already defined", name)
            p.expect_op("=")
            program.defs[name.text] = p.term()
        elif tok.text == "goal":
            p.next()
            name = p.expect_ident()
            if name.text not in program.defs:
                p.unusable(f"goal names an unknown def {name.text!r}", name)
            p.expect_op(":")
            program.goals.append(Goal(name.text, p.type_(), name.line))
        else:
            p.err("expected a statement: basis, def, or goal")
    return program


def load_program(path: str) -> Program:
    with open(path, "rb") as fh:
        data = fh.read()
    try:  # decode as text mode would, but locate a bad byte
        text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1
        col = e.start - data.rfind(b"\n", 0, e.start)
        raise ParseError("not UTF-8 text", line, col, path) from None
    return parse_program(text, path)


# ---------------------------------------------------------------------------
# Printing.  The printer emits exactly the concrete grammar above, with
# well-known coefficients rendered symbolically and everything else to
# twelve significant digits.


_HALF_SQRT = 1.0 / _SQRT2


def _fmt_real(x: float) -> str:
    return f"{x:.12g}"


def _render_magnitude(mag: float) -> str:
    if sc_eq(mag, 1.0):
        return ""
    if sc_eq(mag, _HALF_SQRT):
        return "(1/sqrt2)"
    if sc_eq(mag, 0.5):
        return "(1/2)"
    return _fmt_real(mag)


def render_scalar(c: complex) -> tuple[bool, str]:
    """Sign and text of a coefficient; empty text means a bare plus or
    minus one."""
    re_part, im_part = c.real, c.imag
    if sc_eq(im_part, 0.0):
        return re_part < 0, _render_magnitude(abs(re_part))
    if sc_eq(re_part, 0.0):
        mag = _render_magnitude(abs(im_part))
        text = "i" if not mag else f"{mag}*i"
        return im_part < 0, text
    return False, f"({_fmt_real(re_part)}+{_fmt_real(im_part)}*i)".replace(
        "+-", "-"
    )


_ATOM, _APP, _TOP = 0, 1, 2


def print_term(d: TermDist) -> str:
    if d.is_zero():
        return "0 * |0>"
    pieces: list[tuple[bool, str]] = []
    for t, c in d.entries:
        neg, coeff = render_scalar(c)
        level = _TOP if len(d.entries) == 1 and not coeff else _ATOM
        body = _print_pure(t, level)
        pieces.append((neg, f"{coeff}*{body}" if coeff else body))
    out = []
    for k, (neg, text) in enumerate(pieces):
        if k == 0:
            out.append(f"- {text}" if neg else text)
        else:
            out.append(f"- {text}" if neg else f"+ {text}")
    return " ".join(out)


def _print_dist(d: TermDist, level: int) -> str:
    if len(d.entries) == 1 and sc_eq(d.entries[0][1], 1.0):
        return _print_pure(d.entries[0][0], level)
    text = print_term(d)
    return f"({text})" if level < _TOP else text


def _print_pure(t: PureTerm, level: int) -> str:
    if isinstance(t, Ket):
        return f"|{t.bit}>"
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Pair):
        bits = ket_bits(t)
        if bits is not None:
            return f"|{bits}>"
        return f"({_print_pure(t.left, _TOP)}, {_print_pure(t.right, _TOP)})"
    if isinstance(t, App):
        fun = _print_pure(t.fun, _APP)
        arg = _print_pure(t.arg, _ATOM)
        text = f"{fun} {arg}"
        return f"({text})" if level < _APP else text
    if isinstance(t, Lam):
        text = f"\\{t.var}:{print_basis(t.basis)}. {_print_dist(t.body, _TOP)}"
        return f"({text})" if level < _TOP else text
    if isinstance(t, LetPair):
        text = (
            f"let ({t.var1}:{print_basis(t.basis1)}, "
            f"{t.var2}:{print_basis(t.basis2)}) = "
            f"{_print_pure(t.scrutinee, _TOP)} in {_print_dist(t.body, _TOP)}"
        )
        return f"({text})" if level < _TOP else text
    if isinstance(t, Case):
        arms = " | ".join(
            f"{_print_dist(p, _TOP)} -> {_print_dist(b, _TOP)}"
            for p, b in zip(t.patterns, t.branches)
        )
        text = f"case {_print_pure(t.scrutinee, _APP)} of {{ {arms} }}"
        return f"({text})" if level < _TOP else text
    raise TypeError(f"not a pure term: {t!r}")


def print_basis(b: Basis) -> str:
    if b is ABS or not isinstance(b, Ortho):
        return "@fun"
    if b.name:
        return b.name
    inner = ", ".join(print_term(e) for e in b.elements)
    return f"{{{inner}}}"


def print_type(t: Type) -> str:
    return _print_type(t, 0)


def _print_type(t: Type, prec: int) -> str:
    if isinstance(t, BasisType):
        return f"[{print_basis(t.basis)}]"
    if isinstance(t, Sharp):
        return f"#{_print_type(t.inner, 3)}"
    if isinstance(t, Prod):
        text = f"{_print_type(t.left, 2)} * {_print_type(t.right, 1)}"
        return f"({text})" if prec >= 2 else text
    if isinstance(t, Arrow):
        text = f"{_print_type(t.dom, 1)} -> {_print_type(t.cod, 0)}"
        return f"({text})" if prec >= 1 else text
    raise TypeError(f"not a type: {t!r}")
