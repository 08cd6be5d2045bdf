"""Canonical complex-linear distributions of lambda terms.

A term distribution is a finite formal sum of pure terms with complex
coefficients, kept in a canonical form: coefficients of equal pure terms
merged, near-zero entries dropped, entries sorted by a fixed total order
on pure terms.  All vector-space rewrites (scalar folding, bilinearity of
application and pairing, linearity of let/case in the scrutinee) happen
in the smart constructors, so two expressions related by those rewrites
build the identical canonical object.  Sums are never moved through a
lambda body, a case branch, or a let body: a superposition of results is
not a superposition of functions.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union


@dataclass(frozen=True)
class Settings:
    """The analysis settings, one value for the whole package.

    eps: tolerance of every scalar comparison, orthogonality and norm
    check, and also the pruning threshold: canonical construction drops
    an entry whose coefficient is within eps of zero.
    max_steps: evaluation fuel, the step bound of every evaluation,
    including those inside membership, subtyping, checking and matrix
    extraction.
    """

    eps: float = 1e-9
    max_steps: int = 100000

    def __post_init__(self) -> None:
        # a bool is an int, but neither a tolerance nor a step bound
        if type(self.eps) is bool or not isinstance(self.eps, (int, float)):
            raise TypeError("eps must be a real number")
        if not 0 < self.eps < math.inf:  # also false for nan
            raise ValueError("eps must be positive and finite")
        if type(self.max_steps) is bool or not isinstance(self.max_steps, int):
            raise TypeError("max steps must be an integer")
        if self.max_steps < 0:
            raise ValueError("max steps must be non-negative")


_MISSING = object()  # no stored value is this object


class Table:
    """An exact-keyed memo table that counts its hits and misses."""

    __slots__ = ("entries", "hits", "misses")

    def __init__(self) -> None:
        self.entries: dict = {}
        self.hits = 0
        self.misses = 0

    def memo(self, key, compute: Callable[[], object]):
        """The value stored under key, or compute()'s, stored.  A miss
        runs compute() outside any except block, so an error it raises
        chains no lookup error as its context."""
        value = self.entries.get(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
            value = self.entries[key] = compute()
        else:
            self.hits += 1
        return value


# Session serials.  Unlike an object id, a serial is never reused, so an
# id cached by a closed session never passes for one of a later session.
_serials = itertools.count()


class Session:
    """The tables of one command: the normal form of each evaluated
    input, the membership verdict of each normal form in each goal, the
    outcome of each derived judgement, and the contractions that
    reduction fires below a summand's root.  A session is bound to the
    settings it was opened under: a `local_settings` block with other
    settings runs in a fresh session, so no key holds the settings.
    Keys are exact (variable names, basis names and scalars as stored),
    so a hit returns, and prints, what a fresh computation would.

    The first three tables key a term, a distribution or an annotation
    on its id in this session, a small int interned in `ids` (see Node
    keys).  A node caches its id with this session's `serial`, never the
    session itself, so a closed session is freed with its tables, and a
    node read in a later session is interned again there.  See "Memo
    tables" below."""

    def __init__(self) -> None:
        self.serial = next(_serials)
        self.ids: dict[tuple, int] = {}
        self.evaluations = Table()
        self.memberships = Table()
        self.judgements = Table()
        self.contractions = Table()


# The ambient pair: the settings, and the session open under them, if any.
_settings = Settings()
_session: Optional[Session] = None


@contextmanager
def _ambient(settings: Settings, current: Optional[Session]) -> Iterator[None]:
    """Run the block with settings and current as the ambient pair, and
    restore the previous pair on exit: the pair's only writer."""
    global _settings, _session
    saved = _settings, _session
    _settings, _session = settings, current
    try:
        yield
    finally:
        _settings, _session = saved


def get_settings() -> Settings:
    return _settings


def get_session() -> Optional[Session]:
    """The open session, or None: outside a session nothing is tabled."""
    return _session


@contextmanager
def local_settings(
    new: Optional[Settings] = None, **changes
) -> Iterator[Settings]:
    """Run the block under `new` (default: the current settings) with
    `changes` applied, and restore the previous settings on exit.
    Inside a session, other settings open a fresh one for the block."""
    settings = replace(new or _settings, **changes)
    current = _session
    if current is not None and settings != _settings:
        current = Session()
    with _ambient(settings, current):
        yield settings


@contextmanager
def session() -> Iterator[Session]:
    """Run the block inside a session, the open one if there is one, so
    that its tables live as long as the outermost block."""
    if _session is not None:
        yield _session
        return
    opened = Session()
    with _ambient(_settings, opened):
        yield opened


def sc_eq(a: complex, b: complex) -> bool:
    return abs(a - b) <= _settings.eps


def sc_is_zero(a: complex) -> bool:
    return abs(a) <= _settings.eps


# ---------------------------------------------------------------------------
# Basis annotations.
#
# A binder is annotated either with AbsBasis (substitution proceeds pure
# value by pure value; used for function-position binders) or with an
# orthonormal family of closed value distributions.  Validation of
# orthonormality lives in basis.py; these classes are plain structure.


@dataclass(frozen=True, eq=False)
class AbsBasis:
    def __repr__(self) -> str:
        return "AbsBasis"


ABS = AbsBasis()


@dataclass(frozen=True, eq=False)
class Ortho:
    elements: tuple["TermDist", ...]
    # ignored by term_eq and basis_eq; last in the order key
    name: Optional[str] = None

    def __repr__(self) -> str:
        return f"Ortho({self.name or len(self.elements)})"


Basis = Union[AbsBasis, Ortho]


# ---------------------------------------------------------------------------
# Pure terms.  Children that the congruence would pull sums out of are
# pure terms; children it never rewrites under (lambda bodies, let bodies,
# case branches) stay full distributions.
#
# Nodes are frozen dataclasses, so assigning to a field raises, but each
# class writes its fields straight into its instance dict: the __init__
# that dataclass generates for a frozen class makes one object.__setattr__
# call per field.  The pure-value flag `_value` and the shape key
# `_shape` are fixed when a node is built, from its children's (see Node
# keys): `_value` is a class attribute of every class but Pair, `_shape`
# one of Var alone.


@dataclass(frozen=True, eq=False)
class Var:
    name: str
    _value = True
    _shape = hash((1,))

    def __init__(self, name: str):
        self.__dict__["name"] = name


_KET_SHAPES = (hash((0, 0)), hash((0, 1)))


@dataclass(frozen=True, eq=False)
class Ket:
    bit: int  # 0 or 1
    _value = True

    def __init__(self, bit: int):
        bit = int(bit)
        if bit not in (0, 1):
            raise ValueError("ket bit must be 0 or 1")
        fields = self.__dict__
        fields["bit"] = bit
        fields["_shape"] = _KET_SHAPES[bit]


@dataclass(frozen=True, eq=False)
class Lam:
    var: str
    basis: Basis
    body: "TermDist"
    _value = True

    def __init__(self, var: str, basis: Basis, body: "TermDist"):
        fields = self.__dict__
        fields["var"] = var
        fields["basis"] = basis
        fields["body"] = body
        shapes = sorted([t._shape for t, _ in body.entries])
        fields["_shape"] = hash((3, *shapes))


@dataclass(frozen=True, eq=False)
class Pair:
    left: "PureTerm"
    right: "PureTerm"

    def __init__(self, left: "PureTerm", right: "PureTerm"):
        fields = self.__dict__
        fields["left"] = left
        fields["right"] = right
        fields["_value"] = left._value and right._value
        fields["_shape"] = hash((2, left._shape, right._shape))


@dataclass(frozen=True, eq=False)
class App:
    fun: "PureTerm"
    arg: "PureTerm"
    _value = False

    def __init__(self, fun: "PureTerm", arg: "PureTerm"):
        fields = self.__dict__
        fields["fun"] = fun
        fields["arg"] = arg
        fields["_shape"] = hash((4, fun._shape, arg._shape))


@dataclass(frozen=True, eq=False)
class LetPair:
    var1: str
    basis1: Basis
    var2: str
    basis2: Basis
    scrutinee: "PureTerm"
    body: "TermDist"
    _value = False

    def __init__(
        self,
        var1: str,
        basis1: Basis,
        var2: str,
        basis2: Basis,
        scrutinee: "PureTerm",
        body: "TermDist",
    ):
        fields = self.__dict__
        fields["var1"] = var1
        fields["basis1"] = basis1
        fields["var2"] = var2
        fields["basis2"] = basis2
        fields["scrutinee"] = scrutinee
        fields["body"] = body
        fields["_shape"] = hash((5, scrutinee._shape))


@dataclass(frozen=True, eq=False)
class Case:
    scrutinee: "PureTerm"
    patterns: tuple["TermDist", ...]
    branches: tuple["TermDist", ...]
    _value = False

    def __init__(
        self,
        scrutinee: "PureTerm",
        patterns: tuple["TermDist", ...],
        branches: tuple["TermDist", ...],
    ):
        fields = self.__dict__
        fields["scrutinee"] = scrutinee
        fields["patterns"] = patterns
        fields["branches"] = branches
        fields["_shape"] = hash((6, scrutinee._shape, len(patterns)))


PureTerm = Union[Var, Ket, Lam, Pair, App, LetPair, Case]


# ---------------------------------------------------------------------------
# Term distributions.


@dataclass(frozen=True, eq=False)
class TermDist:
    """Canonical map from pure terms to nonzero complex coefficients."""

    entries: tuple[tuple[PureTerm, complex], ...]

    def __init__(self, entries: tuple[tuple[PureTerm, complex], ...]):
        self.__dict__["entries"] = entries

    def __iter__(self) -> Iterator[tuple[PureTerm, complex]]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def is_zero(self) -> bool:
        return not self.entries

    def __repr__(self) -> str:
        return f"TermDist({len(self.entries)} entries)"


# ---------------------------------------------------------------------------
# Node keys.  Nodes are immutable, and what a node knows about itself is
# stored in its own dict.  Three facts are fixed when it is built: the
# pure-value flag (`_value`, see Pure terms), the shape key (`_shape`,
# see below) and, on a distribution of two or more entries that `_build`
# or a reduction step makes, the eps it was built under (`_eps`, see
# is_canonical).  A distribution that a step has merged into also
# carries its entries' shape keys (`_shapes`, see reduction._merge),
# which the next step's merge reads; a step finds its pending summands
# afresh from `_value`.  What depends on a whole subterm is computed
# once, bottom-up on first use: the order key (`_key`), a distribution's
# free variables (`_fv`), the redex that reduction finds in the node,
# its frames counted from the node whatever the node sits under
# (`_found`), a body's instances (`_instances`, see subst) and, once a
# session table reads it, the node's id in that session (`_id`, see
# below).  Free variables stay lazy: reduction builds step frames and
# plugged summands that are never asked for them, and computing them
# when each node is built, from its children's, made `deep` 7% slower
# (`pass_s` 0.152 -> 0.162 s, 3 alternated pairs, 2-vCPU VM).
# Most nodes that reduction asks about are fresh, so each lazy fact is
# read with `__dict__.get`: a miss costs a dict lookup, where a raised
# and caught AttributeError costs ten times more.
#
# By owner, every fact the package stores (tests/test_imports.py checks
# this list against the writes): term facts (`_value`, `_shape`, `_key`,
# `_id`, `_found`); distribution facts (`_eps`, `_shapes`, `_key`, `_id`,
# `_fv`, `_instances`); basis facts (`_key`, `_id`), on an `Ortho` only;
# type facts (`_key`, see typesem.type_key).
#
# The order key (_term_key, _dist_key, _basis_key) is a total order on
# pure terms: nested tuples, ranks separate constructors, payloads only
# ever compare within one constructor.  Variables are keyed by name (free
# and bound alike), so the order is a fixed deterministic convention, not
# alpha-invariant; it fixes the entry order of a canonical distribution.
# It is also exact: an `Ortho` key ends with the basis name ("" when it
# has none), so nodes with equal keys print alike.  The name comes last
# so that it only breaks ties between annotations with equal elements.
#
# The id (_term_id, _dist_id, _basis_id) stands for the order key inside
# one session, so that a table lookup hashes a few ints, not a tuple as
# large as the term.  A node's signature mirrors its key case by case:
# the rank (7 for `AbsBasis`, 8 for an `Ortho`, 9 for a distribution, so
# that no two kinds of node share a signature), the atoms (names, ket
# bit, pattern count, the basis name or "", each coefficient as stored)
# and the children's ids.  Two complex numbers are equal, and hash
# alike, exactly when the float pairs the key holds are equal (0.0 and
# -0.0 included), and the entry's own object costs no new float.  The
# open session interns a signature in `Session.ids`, numbering them in
# order of first use, so ids do not depend on the hash seed, and two
# nodes have equal ids in a session exactly when their order keys are
# equal.  A node caches the pair (session serial, id) in `_id`, and a
# pair from another session is stale: the node is interned afresh.  Ids
# stay lazy, as free variables do, and for the same reason: most nodes
# are never keyed by a table.  An id is read only inside a session.
#
# The shape key (shape_key) is an int that leaves out every variable and
# binder name and every scalar, the things term_eq matches up to alpha or
# within eps.  So term_eq(a, b) implies shape_key(a) == shape_key(b), and
# merges and inner products group entries into buckets by shape key and
# run term_eq only inside a bucket.  A node takes its shape from its
# children's, one level down, and binders are opaque: merging serves a
# congruence that never rewrites under a binder.  A let has its
# scrutinee's shape, a case its scrutinee's and its pattern count, and a
# lambda the sorted shapes of its body's summands (sorted: _dist_eq
# matches entries pairwise), else a sum of lambdas that differ only in
# their bodies would share one bucket.  A case is rebuilt as a frame on
# every step under it, so its shape costs no more than its scrutinee's,
# and a sum of cases that differ only in a branch shares one bucket.
# Coarse shapes change no output: every match still lies in its bucket.
# alpha_classes (behind group_pairs, rank-one factoring and product
# membership) scans one bucket the same way.  _build, the hottest path,
# keeps its buckets inline: a shared helper slowed it.  A reduction step
# merges what fired into the summands it keeps through their shape keys,
# carried from step to step in `_shapes`, in place of buckets.
#
# Memo tables, all of them, each with its key, lifetime and bound.  Every
# one is exact, basis names included: a hit is, and prints as, what a
# fresh computation gives, and the tests compare the two
# (tests/test_nodes.py, test_session.py, test_step.py).
#
# - The facts computed on first use (see Node keys): keyed by the node,
#   or by the `Ortho` or type, stored in its dict, freed with it; one
#   per fact.  `AbsBasis` has constant ones.
# - Instances (`_instances`, see subst._instance): on a body, keyed by
#   the binder name, the basis element object and eps; freed with the
#   body; per name and eps, one entry per element of the bases the body
#   is substituted through.
# - The session tables (see `Session`), each living for the outermost
#   `session()` block, unbounded within it.  A session is bound to the
#   settings it was opened under: a `local_settings` block with other
#   settings runs in a fresh session that closes with the block, and
#   one with equal settings keeps the open one, so no key holds them.
#   - `ids`: a node's signature, to its id (see Node keys); one entry
#     per distinct signature among the nodes the next three tables key
#     on, their subterms and annotations included;
#   - `evaluations`: the input's id, to its normal form or None, also
#     stored under every step of a miss's trace (reduction.table_trace);
#   - `memberships`: the normal form's id and the goal's `type_key`, to
#     the verdict; an Undecidable stores nothing (typesem.realizes);
#   - `judgements`: the usable context (each name's type key and
#     annotation id), the term's id and the goal's `type_key`, to the
#     derivation or the error's fields (checker._judgement_key);
#   - `contractions`: the identity of the redex's fields and the value's
#     term objects and coefficient bits, to what fired, below the root
#     of a whole summand only (reduction.step; a redex under `run`'s
#     stack of frames is below it).  `evaluate` and `run` open a session
#     for the length of their call when none is open.


def _basis_key(b: Basis):
    if isinstance(b, AbsBasis):
        return (0, ())
    k = b.__dict__.get("_key")
    if k is None:
        elements = tuple(_dist_key(e) for e in b.elements)
        k = b.__dict__["_key"] = (1, elements, b.name or "")
    return k


def _term_key(t: PureTerm):
    k = t.__dict__.get("_key")
    if k is not None:
        return k
    if isinstance(t, Ket):
        k = (0, (t.bit,), ())
    elif isinstance(t, Var):
        k = (1, (t.name,), ())
    elif isinstance(t, Pair):
        k = (2, (), (_term_key(t.left), _term_key(t.right)))
    elif isinstance(t, Lam):
        k = (3, (t.var, _basis_key(t.basis)), (_dist_key(t.body),))
    elif isinstance(t, App):
        k = (4, (), (_term_key(t.fun), _term_key(t.arg)))
    elif isinstance(t, LetPair):
        k = (
            5,
            (t.var1, _basis_key(t.basis1), t.var2, _basis_key(t.basis2)),
            (_term_key(t.scrutinee), _dist_key(t.body)),
        )
    elif isinstance(t, Case):
        k = (
            6,
            (len(t.patterns),),
            (_term_key(t.scrutinee),)
            + tuple(_dist_key(p) for p in t.patterns)
            + tuple(_dist_key(b) for b in t.branches),
        )
    else:
        raise TypeError(f"not a pure term: {t!r}")
    t.__dict__["_key"] = k
    return k


def _dist_key(d: TermDist):
    k = d.__dict__.get("_key")
    if k is None:
        k = d.__dict__["_key"] = tuple(
            (_term_key(t), (c.real, c.imag)) for t, c in d.entries
        )
    return k


def _intern(signature: tuple) -> int:
    ids = _session.ids
    return ids.setdefault(signature, len(ids))


def _basis_id(b: Basis) -> int:
    if isinstance(b, AbsBasis):
        return _intern((7,))
    serial = _session.serial
    k = b.__dict__.get("_id")
    if k is None or k[0] != serial:
        signature = (8, b.name or "", *[_dist_id(e) for e in b.elements])
        k = b.__dict__["_id"] = (serial, _intern(signature))
    return k[1]


def _term_id(t: PureTerm) -> int:
    serial = _session.serial
    k = t.__dict__.get("_id")
    if k is not None and k[0] == serial:
        return k[1]
    if isinstance(t, Ket):
        signature = (0, t.bit)
    elif isinstance(t, Var):
        signature = (1, t.name)
    elif isinstance(t, Pair):
        signature = (2, _term_id(t.left), _term_id(t.right))
    elif isinstance(t, Lam):
        signature = (3, t.var, _basis_id(t.basis), _dist_id(t.body))
    elif isinstance(t, App):
        signature = (4, _term_id(t.fun), _term_id(t.arg))
    elif isinstance(t, LetPair):
        signature = (
            5,
            t.var1,
            _basis_id(t.basis1),
            t.var2,
            _basis_id(t.basis2),
            _term_id(t.scrutinee),
            _dist_id(t.body),
        )
    elif isinstance(t, Case):
        signature = (
            6,
            len(t.patterns),
            _term_id(t.scrutinee),
            *[_dist_id(p) for p in t.patterns],
            *[_dist_id(b) for b in t.branches],
        )
    else:
        raise TypeError(f"not a pure term: {t!r}")
    i = _intern(signature)
    t.__dict__["_id"] = (serial, i)
    return i


def _dist_id(d: TermDist) -> int:
    """d's id in the open session: equal exactly when the order keys are
    (see Node keys)."""
    serial = _session.serial
    k = d.__dict__.get("_id")
    if k is None or k[0] != serial:
        signature = [9]
        for t, c in d.entries:
            signature += (_term_id(t), c)
        k = d.__dict__["_id"] = (serial, _intern(tuple(signature)))
    return k[1]


def shape_key(t: PureTerm) -> int:
    """The shape key of t, fixed when t was built: term_eq(a, b) implies
    shape_key(a) == shape_key(b)."""
    return t._shape


# ---------------------------------------------------------------------------
# Alpha-respecting comparison.  Bound variables are compared by binding
# position, free variables by name; scalars within eps.


class _Env:
    __slots__ = ("map", "parent")

    def __init__(self, parent: Optional["_Env"], name: str, level: int):
        self.map = (name, level)
        self.parent = parent

    @staticmethod
    def lookup(env: Optional["_Env"], name: str) -> Optional[int]:
        while env is not None:
            if env.map[0] == name:
                return env.map[1]
            env = env.parent
        return None


def basis_eq(a: Basis, b: Basis) -> bool:
    if isinstance(a, AbsBasis) or isinstance(b, AbsBasis):
        return isinstance(a, AbsBasis) and isinstance(b, AbsBasis)
    if len(a.elements) != len(b.elements):
        return False
    return all(
        _dist_eq(x, y, None, None, 0) for x, y in zip(a.elements, b.elements)
    )


def _term_eq(
    a: PureTerm,
    b: PureTerm,
    ea: Optional[_Env],
    eb: Optional[_Env],
    depth: int,
) -> bool:
    if a is b and ea is eb:  # one shared node under the same binders
        return True
    if type(a) is not type(b):
        return False
    if isinstance(a, Ket):
        return a.bit == b.bit
    if isinstance(a, Var):
        la, lb = _Env.lookup(ea, a.name), _Env.lookup(eb, b.name)
        if la is None and lb is None:
            return a.name == b.name
        return la == lb
    if isinstance(a, Pair):
        return _term_eq(a.left, b.left, ea, eb, depth) and _term_eq(
            a.right, b.right, ea, eb, depth
        )
    if isinstance(a, App):
        return _term_eq(a.fun, b.fun, ea, eb, depth) and _term_eq(
            a.arg, b.arg, ea, eb, depth
        )
    # binders of one name over one env bind alike: one new env serves
    # both sides, so a shared body still compares by identity
    if isinstance(a, Lam):
        if not basis_eq(a.basis, b.basis):
            return False
        ea2 = _Env(ea, a.var, depth)
        eb2 = ea2 if ea is eb and a.var == b.var else _Env(eb, b.var, depth)
        return _dist_eq(a.body, b.body, ea2, eb2, depth + 1)
    if isinstance(a, LetPair):
        if not (
            basis_eq(a.basis1, b.basis1) and basis_eq(a.basis2, b.basis2)
        ):
            return False
        if not _term_eq(a.scrutinee, b.scrutinee, ea, eb, depth):
            return False
        ea2 = _Env(_Env(ea, a.var1, depth), a.var2, depth + 1)
        if ea is eb and (a.var1, a.var2) == (b.var1, b.var2):
            eb2 = ea2
        else:
            eb2 = _Env(_Env(eb, b.var1, depth), b.var2, depth + 1)
        return _dist_eq(a.body, b.body, ea2, eb2, depth + 2)
    if isinstance(a, Case):
        if len(a.patterns) != len(b.patterns):
            return False
        if not _term_eq(a.scrutinee, b.scrutinee, ea, eb, depth):
            return False
        for pa, pb in zip(a.patterns, b.patterns):
            if not _dist_eq(pa, pb, None, None, 0):
                return False
        for ba, bb in zip(a.branches, b.branches):
            if not _dist_eq(ba, bb, ea, eb, depth):
                return False
        return True
    raise TypeError(f"not a pure term: {a!r}")


def _dist_eq(
    a: TermDist,
    b: TermDist,
    ea: Optional[_Env],
    eb: Optional[_Env],
    depth: int,
) -> bool:
    if a is b and ea is eb:  # finite coefficients: each entry matches itself
        return True
    if len(a.entries) != len(b.entries):
        return False
    used = [False] * len(b.entries)
    eps = _settings.eps
    for ta, ca in a.entries:
        hit = False
        for j, (tb, cb) in enumerate(b.entries):
            if used[j]:
                continue
            if abs(ca - cb) <= eps and _term_eq(ta, tb, ea, eb, depth):
                used[j] = True
                hit = True
                break
        if not hit:
            return False
    return True


def term_eq(a: PureTerm, b: PureTerm) -> bool:
    """Alpha-respecting equality with scalar tolerance (the Kronecker
    delta used by the inner product)."""
    return _term_eq(a, b, None, None, 0)


def dist_eq(a: TermDist, b: TermDist) -> bool:
    return _dist_eq(a, b, None, None, 0)


# ---------------------------------------------------------------------------
# Free variables and closedness.  A distribution caches its free
# variables like its keys: the bodies substitution and the checker ask
# about are distributions, and a cache on every pure term as well costs
# more memory than it saves time.  Measured again with the session's
# membership and contraction tables in place (2-vCPU VM, perfbench
# `corpus`, 5 alternated pairs): `pass_s` 0.370 -> 0.368 s, lower in 3
# of 5, within noise, and `peak_rss_mb` 36.03 -> 36.58 MB.


def free_vars(t: Union[PureTerm, TermDist]) -> frozenset[str]:
    if isinstance(t, TermDist):
        out = t.__dict__.get("_fv")
        if out is None:
            out = frozenset()
            for u, _ in t.entries:
                out |= free_vars(u)
            t.__dict__["_fv"] = out
        return out
    if isinstance(t, Var):
        return frozenset((t.name,))
    if isinstance(t, Ket):
        return frozenset()
    if isinstance(t, Pair):
        return free_vars(t.left) | free_vars(t.right)
    if isinstance(t, App):
        return free_vars(t.fun) | free_vars(t.arg)
    if isinstance(t, Lam):
        return free_vars(t.body) - {t.var}
    if isinstance(t, LetPair):
        return free_vars(t.scrutinee) | (free_vars(t.body) - {t.var1, t.var2})
    if isinstance(t, Case):
        out = free_vars(t.scrutinee)
        for b in t.branches:
            out |= free_vars(b)
        return out
    raise TypeError(f"not a term: {t!r}")


def is_closed(t: Union[PureTerm, TermDist]) -> bool:
    return not free_vars(t)


def is_pure_value(t: PureTerm) -> bool:
    """Whether t is a variable, a ket, a lambda or a pair of pure values:
    the flag each node fixes when it is built (see `Pair`)."""
    return t._value


def is_value_dist(d: TermDist) -> bool:
    return all(is_pure_value(t) for t, _ in d.entries)


# ---------------------------------------------------------------------------
# Canonical construction.  _build records on a distribution of two or more
# entries the eps it ran under, so that the entries of one known canonical
# under the current eps can be kept without a rebuild: a reduction step
# keeps the summands that do not fire, and combine keeps each piece's
# order.


def _entry_key(e: tuple[PureTerm, complex]):
    return _term_key(e[0])


def _build(pairs: Iterable[tuple[PureTerm, complex]]) -> TermDist:
    """Merge equal terms (each into the first earlier entry it is term_eq
    to), prune zero coefficients and sort.  A coefficient that is not
    finite raises OverflowError."""
    merged: list[tuple[PureTerm, complex]] = []
    buckets: dict[int, list[int]] = {}  # shape key -> indices into merged
    for t, c in pairs:
        if c == 0:
            continue
        bucket = buckets.setdefault(t._shape, [])
        for i in bucket:
            u, d = merged[i]
            if term_eq(t, u):
                merged[i] = (u, d + c)
                break
        else:
            bucket.append(len(merged))
            merged.append((t, complex(c)))
    eps = _settings.eps
    pruned = []
    for t, c in merged:
        m = abs(c)
        if m <= eps:
            continue
        if not m < math.inf:  # nan or infinity
            raise OverflowError("coefficient is not finite")
        pruned.append((t, c))
    if len(pruned) < 2:  # so a single term's order key is never built
        return TermDist(tuple(pruned))
    pruned.sort(key=_entry_key)
    out = TermDist(tuple(pruned))
    out.__dict__["_eps"] = _settings.eps
    return out


def is_canonical(d: TermDist) -> bool:
    """Whether d, of two or more entries, was built canonical under the
    current eps."""
    return d.__dict__.get("_eps") == _settings.eps


def zero() -> TermDist:
    return TermDist(())


def single(t: PureTerm) -> TermDist:
    return TermDist(((t, 1 + 0j),))


def scale(c: complex, d: TermDist) -> TermDist:
    if sc_is_zero(c):
        return zero()
    return _build((t, c * a) for t, a in d.entries)


def add(*dists: TermDist) -> TermDist:
    pairs: list[tuple[PureTerm, complex]] = []
    for d in dists:
        pairs.extend(d.entries)
    return _build(pairs)


def sub(a: TermDist, b: TermDist) -> TermDist:
    return add(a, scale(-1, b))


def combine(
    pieces: Iterable[tuple[Optional[complex], TermDist]],
) -> TermDist:
    """add(*(scale(c, d) for c, d in pieces)), bit for bit, in one
    construction.  A piece whose factor is None enters as it stands, as
    add takes it.

    Exact because scale does nothing to a canonical piece but multiply:
    its terms are pairwise apart under the current eps, so scale's merge
    joins none of them, and they are in key order, so its stable sort
    leaves them in place.  What scale does besides is done here, entry by
    entry: a zero factor drops the piece, a product within eps is
    dropped, one that is not finite raises OverflowError, and the rest
    are stored as the complex numbers scale stores.  A piece of two or
    more entries that is not canonical under the current eps (built
    under another eps, or by hand) goes through scale itself."""
    eps = _settings.eps
    pairs: list[tuple[PureTerm, complex]] = []
    for c, d in pieces:
        if c is None:
            pairs.extend(d.entries)
        elif abs(c) <= eps:  # sc_is_zero
            continue
        elif len(d.entries) > 1 and d.__dict__.get("_eps") != eps:
            pairs.extend(scale(c, d).entries)
        else:
            for t, a in d.entries:
                p = c * a
                m = abs(p)
                if m <= eps:
                    continue
                if not m < math.inf:  # nan or infinity
                    raise OverflowError("coefficient is not finite")
                pairs.append((t, complex(p)))
    return _build(pairs)


def mk_pair(left: TermDist, right: TermDist) -> TermDist:
    return _build(
        (Pair(t, s), a * b) for t, a in left.entries for s, b in right.entries
    )


def mk_app(fun: TermDist, arg: TermDist) -> TermDist:
    return _build(
        (App(t, s), a * b) for t, a in fun.entries for s, b in arg.entries
    )


def mk_lam(var: str, basis: Basis, body: TermDist) -> TermDist:
    return single(Lam(var, basis, body))


def mk_letpair(
    var1: str,
    basis1: Basis,
    var2: str,
    basis2: Basis,
    scrutinee: TermDist,
    body: TermDist,
) -> TermDist:
    if var1 == var2:
        raise ValueError("let pair binders must be distinct")
    return _build(
        (LetPair(var1, basis1, var2, basis2, t, body), c)
        for t, c in scrutinee.entries
    )


def validate_case_patterns(patterns: tuple[TermDist, ...]) -> None:
    if not patterns:
        raise ValueError("case needs at least one pattern")
    for p in patterns:
        if p.is_zero() or not is_value_dist(p):
            raise ValueError("case patterns must be value distributions")
        if not is_closed(p):
            raise ValueError("case patterns must be closed")
        if not sc_eq(norm(p), 1.0):
            raise ValueError("case patterns must have norm 1")
    overlap = first_overlap(patterns)
    if overlap is not None:
        i, j = overlap
        raise ValueError(f"case patterns {i} and {j} are not orthogonal")


def mk_case(
    scrutinee: TermDist,
    patterns: Iterable[TermDist],
    branches: Iterable[TermDist],
) -> TermDist:
    pats = tuple(patterns)
    brs = tuple(branches)
    if len(pats) != len(brs):
        raise ValueError("case needs one branch per pattern")
    validate_case_patterns(pats)
    return _build((Case(t, pats, brs), c) for t, c in scrutinee.entries)


# ---------------------------------------------------------------------------
# Grouping by alpha-class.


def alpha_classes(
    terms: Iterable[PureTerm],
) -> tuple[list[PureTerm], list[int]]:
    """The first term of each alpha-class, in order of appearance, and
    the class of each term t: the first whose representative r has
    term_eq(r, t), tried only within t's shape bucket, where every
    match lies."""
    reps: list[PureTerm] = []
    index: list[int] = []
    buckets: dict[int, list[int]] = {}  # shape key -> indices into reps
    for t in terms:
        bucket = buckets.setdefault(t._shape, [])
        for i in bucket:
            if term_eq(reps[i], t):
                break
        else:
            i = len(reps)
            bucket.append(i)
            reps.append(t)
        index.append(i)
    return reps, index


def group_pairs(
    v: TermDist, by_left: bool
) -> list[tuple[PureTerm, TermDist]]:
    """A sum of pairs grouped by the alpha-class of one side: each class's
    representative with the sum of c * (other side) over its entries,
    one construction of the pieces in entry order."""
    sides = [(t.left, t.right) if by_left else (t.right, t.left) for t, _ in v]
    keys, index = alpha_classes(key for key, _ in sides)
    groups: list[list[tuple[complex, TermDist]]] = [[] for _ in keys]
    for i, (_, rest), (_, c) in zip(index, sides, v.entries):
        groups[i].append((c, single(rest)))
    return [(key, combine(pieces)) for key, pieces in zip(keys, groups)]


# ---------------------------------------------------------------------------
# Inner product, norm, global phase.


def inner_product(v: TermDist, w: TermDist) -> complex:
    """Sesquilinear (conjugate in the first argument); the delta on pure
    terms is alpha-respecting syntactic equality of canonical forms."""
    by_shape: dict[int, list[tuple[PureTerm, complex]]] = {}
    for s, b in w.entries:
        by_shape.setdefault(s._shape, []).append((s, b))
    acc = 0 + 0j
    for t, a in v.entries:
        for s, b in by_shape.get(t._shape, ()):
            if _term_eq(t, s, None, None, 0):
                acc += a.conjugate() * b
    return acc


def first_overlap(dists: Sequence[TermDist]) -> Optional[tuple[int, int]]:
    """The first pair i < j of non-orthogonal distributions, or None when
    the family is pairwise orthogonal."""
    for i in range(len(dists)):
        for j in range(i + 1, len(dists)):
            if not sc_is_zero(inner_product(dists[i], dists[j])):
                return i, j
    return None


def norm(v: TermDist) -> float:
    sq = inner_product(v, v)
    # self inner product is real up to rounding
    return math.sqrt(max(sq.real, 0.0))


def phase_normalize(v: TermDist) -> tuple[TermDist, complex]:
    """Divide out the phase of the leading coefficient; returns the
    normalized distribution and the unit phase that was removed, so that
    v = phase * result."""
    if v.is_zero():
        raise ValueError("cannot phase-normalize the zero distribution")
    lead = v.entries[0][1]
    phase = lead / abs(lead)
    return scale(phase.conjugate(), v), phase
