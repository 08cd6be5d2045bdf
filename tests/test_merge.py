"""Shape-keyed merging against the pairwise merge it replaced.

`core._build` and `core.inner_product` compare entries only inside
buckets of equal shape key.  The references below are the earlier
pairwise versions, kept verbatim with their uncached order key; the
bucketed versions must return the same entries (the same representative
objects, bitwise-equal coefficients, the same order) and the same inner
products.  The shape key itself must satisfy term_eq(a, b) =>
shape_key(a) == shape_key(b).
"""

import gc
import struct

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

import gen
from basislam import core
from basislam.basis import STD
from basislam.core import (
    ABS,
    AbsBasis,
    App,
    Case,
    Ket,
    Lam,
    LetPair,
    Ortho,
    Pair,
    TermDist,
    Var,
    add,
    mk_app,
    mk_pair,
    scale,
    shape_key,
    single,
    term_eq,
)
from basislam import reduction, subst
from basislam.corpus import corpus_program
from basislam.reduction import NormalForm, evaluate


# ---------------------------------------------------------------------------
# References: the pairwise merge and inner product, with the order key
# recomputed on every call.


def _ref_basis_key(b):
    if isinstance(b, AbsBasis):
        return (0, ())
    return (1, tuple(_ref_dist_key(e) for e in b.elements))


def _ref_term_key(t):
    if isinstance(t, Ket):
        return (0, (t.bit,), ())
    if isinstance(t, Var):
        return (1, (t.name,), ())
    if isinstance(t, Pair):
        return (2, (), (_ref_term_key(t.left), _ref_term_key(t.right)))
    if isinstance(t, Lam):
        return (3, (t.var, _ref_basis_key(t.basis)), (_ref_dist_key(t.body),))
    if isinstance(t, App):
        return (4, (), (_ref_term_key(t.fun), _ref_term_key(t.arg)))
    if isinstance(t, LetPair):
        return (
            5,
            (t.var1, _ref_basis_key(t.basis1), t.var2, _ref_basis_key(t.basis2)),
            (_ref_term_key(t.scrutinee), _ref_dist_key(t.body)),
        )
    if isinstance(t, Case):
        return (
            6,
            (len(t.patterns),),
            (_ref_term_key(t.scrutinee),)
            + tuple(_ref_dist_key(p) for p in t.patterns)
            + tuple(_ref_dist_key(b) for b in t.branches),
        )
    raise TypeError(f"not a pure term: {t!r}")


def _ref_dist_key(d):
    return tuple((_ref_term_key(t), (c.real, c.imag)) for t, c in d.entries)


def ref_build(pairs):
    merged = []
    for t, c in pairs:
        if c == 0:
            continue
        for i, (u, d) in enumerate(merged):
            if term_eq(t, u):
                merged[i] = (u, d + c)
                break
        else:
            merged.append((t, complex(c)))
    pruned = [(t, c) for t, c in merged if not core.sc_is_zero(c)]
    pruned.sort(key=lambda e: _ref_term_key(e[0]))
    return TermDist(tuple(pruned))


def ref_inner_product(v, w):
    acc = 0 + 0j
    for t, a in v.entries:
        for s, b in w.entries:
            if core._term_eq(t, s, None, None, 0):
                acc += a.conjugate() * b
    return acc


def bits(c: complex) -> bytes:
    return struct.pack("<dd", c.real, c.imag)


def assert_same_dist(new: TermDist, ref: TermDist) -> None:
    assert len(new.entries) == len(ref.entries)
    for (t, c), (u, d) in zip(new.entries, ref.entries):
        assert t is u
        assert bits(c) == bits(d)


# ---------------------------------------------------------------------------
# Entry lists with duplicates, alpha-variants, near-equal nested
# coefficients and cancelling pairs.  Every entry is a fresh object, so
# `is` tells which occurrence a merge kept.

K0, K1 = single(Ket(0)), single(Ket(1))
NAMES = ("x", "y", "z")
# the tolerance the tests run under (the default settings)
TOL = core.get_settings().eps
# nested coefficient offsets, in units of TOL: 0.6 and 1.2 are each within
# TOL of their neighbour but not of each other
OFFSETS = (0.0, 0.6, 1.2, 3.0)
COEFFS = (1, -1, 0.5, 1j, 0.25 - 0.5j, 0)


def _lam_body(name: str, off: float) -> TermDist:
    return add(
        scale(0.6, single(Var(name))), scale(0.8 + off * TOL, K0)
    )


def _template(kind: int, name: str, off: float):
    eps = off * TOL
    if kind == 0:
        return Ket(0)
    if kind == 1:
        return Pair(Ket(0), Ket(1))
    if kind == 2:
        return Var(name)  # free: names differ, shapes agree
    if kind == 3:
        return Lam(name, STD, _lam_body(name, off))
    if kind == 4:
        body = scale(1 + eps, single(App(Var(name), Ket(0))))
        return Lam(name, ABS, body)
    if kind == 5:
        other = name + "2"
        body = scale(1 + eps, single(Pair(Var(other), Var(name))))
        return LetPair(name, STD, other, STD, Pair(Ket(0), Ket(1)), body)
    if kind == 6:
        return App(Lam(name, STD, _lam_body(name, off)), Ket(1))
    if kind == 7:
        branches = (scale(0.5 + eps, K1), single(Var(name)))
        return Case(Ket(0), (K0, K1), branches)
    return Pair(Lam(name, STD, _lam_body(name, off)), Ket(0))


SPEC = st.tuples(
    st.integers(0, 8),
    st.sampled_from(NAMES),
    st.sampled_from(OFFSETS),
    st.sampled_from(COEFFS),
    st.sampled_from((None, 0.0, 0.6, 3.0)),  # cancel, offset in TOL
)


def _entries(specs):
    out = []
    for kind, name, off, c, cancel in specs:
        out.append((_template(kind, name, off), c))
        if cancel is not None:
            out.append((_template(kind, name, off), -c + cancel * TOL))
    return out


@given(st.lists(SPEC, max_size=24))
def test_build_matches_pairwise_merge(specs):
    entries = _entries(specs)
    assert_same_dist(core._build(entries), ref_build(entries))


@given(st.lists(SPEC, max_size=12), st.lists(SPEC, max_size=12))
def test_inner_product_matches_pairwise(left, right):
    # canonical operands, and raw ones with repeats and zero entries
    for v, w in (
        (core._build(_entries(left)), core._build(_entries(right))),
        (TermDist(tuple(_entries(left))), TermDist(tuple(_entries(right)))),
    ):
        assert bits(core.inner_product(v, w)) == bits(ref_inner_product(v, w))


# ---------------------------------------------------------------------------
# The shape invariant on generated terms and their variants.


def _alpha(t, env):
    """t with every binder renamed to a name it does not use, and every
    nested distribution's entries in reverse order."""
    if isinstance(t, Var):
        return Var(env.get(t.name, t.name))
    if isinstance(t, Ket):
        return t
    if isinstance(t, Pair):
        return Pair(_alpha(t.left, env), _alpha(t.right, env))
    if isinstance(t, App):
        return App(_alpha(t.fun, env), _alpha(t.arg, env))
    if isinstance(t, Lam):
        inner = {**env, t.var: t.var + "_a"}
        return Lam(t.var + "_a", t.basis, _alpha_dist(t.body, inner))
    if isinstance(t, LetPair):
        inner = {**env, t.var1: t.var1 + "_a", t.var2: t.var2 + "_a"}
        return LetPair(
            t.var1 + "_a", t.basis1, t.var2 + "_a", t.basis2,
            _alpha(t.scrutinee, env), _alpha_dist(t.body, inner),
        )
    return Case(
        _alpha(t.scrutinee, env),
        t.patterns,
        tuple(_alpha_dist(b, env) for b in t.branches),
    )


def _alpha_dist(d, env):
    # reversed: term_eq matches entries pairwise, not by position
    return TermDist(tuple((_alpha(t, env), c) for t, c in reversed(d.entries)))


def _perturb_basis(b, delta):
    if isinstance(b, AbsBasis):
        return b
    return Ortho(tuple(_perturb_dist(e, delta) for e in b.elements), b.name)


def _perturb(t, delta):
    """t with every nested coefficient, in bases too, moved by delta."""
    if isinstance(t, (Var, Ket)):
        return t
    if isinstance(t, Pair):
        return Pair(_perturb(t.left, delta), _perturb(t.right, delta))
    if isinstance(t, App):
        return App(_perturb(t.fun, delta), _perturb(t.arg, delta))
    if isinstance(t, Lam):
        return Lam(
            t.var, _perturb_basis(t.basis, delta), _perturb_dist(t.body, delta)
        )
    if isinstance(t, LetPair):
        return LetPair(
            t.var1, _perturb_basis(t.basis1, delta),
            t.var2, _perturb_basis(t.basis2, delta),
            _perturb(t.scrutinee, delta), _perturb_dist(t.body, delta),
        )
    return Case(
        _perturb(t.scrutinee, delta),
        tuple(_perturb_dist(p, delta) for p in t.patterns),
        tuple(_perturb_dist(b, delta) for b in t.branches),
    )


def _perturb_dist(d, delta):
    return TermDist(
        tuple((_perturb(t, delta), c + delta) for t, c in d.entries)
    )


def _pool():
    """Pure terms of generated closed terms and of their reduction steps."""
    rng = np.random.default_rng(7)
    pool = []
    for _ in range(30):
        d, _, _ = gen.closed_term(rng)
        pool.extend(t for t, _ in d.entries)
        for step, _rule in evaluate(d).steps[:6]:
            pool.extend(t for t, _ in step.entries)
    return pool


def test_shape_respects_term_eq():
    pool = _pool()
    assert len(pool) > 200
    below, above = 0.4 * TOL, 3 * TOL
    for t in pool:
        for variant in (
            _alpha(t, {}),
            _perturb(t, below),
            _perturb(_alpha(t, {}), below),
        ):
            assert term_eq(t, variant)
            assert shape_key(t) == shape_key(variant)
        assert term_eq(t, t)
        # past the tolerance the terms may differ, in the same bucket
        assert shape_key(_perturb(t, above)) == shape_key(t)
    pairs = 0
    for i, a in enumerate(pool):
        for b in pool[i + 1:]:
            if term_eq(a, b):
                pairs += 1
                assert shape_key(a) == shape_key(b)
    assert pairs > 0


def test_shape_stops_at_binders():
    """What lies under a binder leaves a shape as it is: terms that
    differ only there share a bucket, term_eq still tells them apart,
    and a merge keeps both."""
    x, k0, k1 = single(Var("x")), single(Ket(0)), single(Ket(1))
    one = Ortho((k0,))

    def case(branch):
        return Case(Var("z"), (k0, k1), (k0, branch))

    pairs = [
        # lambdas: the annotation, and what lies under a summand's binder
        (Lam("x", STD, x), Lam("x", one, x)),
        (Lam("x", STD, single(case(k0))), Lam("x", STD, single(case(x)))),
        # lets: the annotations and the body
        (
            LetPair("x", STD, "y", STD, Var("p"), x),
            LetPair("x", one, "y", ABS, Var("p"), k1),
        ),
        # cases: a branch, and the patterns
        (case(k0), case(x)),
        (case(k1), Case(Var("z"), (k1, k0), (k0, k1))),
    ]
    for a, b in pairs:
        assert shape_key(a) == shape_key(b)
        assert not term_eq(a, b)
        merged = add(single(a), single(b))
        assert {id(t) for t, _ in merged} == {id(a), id(b)}
    # a lambda's shape holds its body's summands, one level down
    assert shape_key(Lam("x", STD, k0)) != shape_key(Lam("x", STD, k1))


# ---------------------------------------------------------------------------
# Complexity guard: a count of recursive comparisons, not a timing.


def _count_term_eq(monkeypatch, term) -> tuple[TermDist, int]:
    """The normal form of term and the recursive _term_eq calls made."""
    calls = 0
    original = core._term_eq

    def counted(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(core, "_term_eq", counted)
    trace = evaluate(term)
    assert isinstance(trace.final, NormalForm)
    return trace.final.dist, calls


def test_hd_layer_comparisons_stay_linear(monkeypatch):
    # six wires of `Hd |0>`: 64 summands in the normal form.  The pairwise
    # merge made 720,665 recursive _term_eq calls here.
    hd = corpus_program("gates").defs["Hd"]
    term = mk_app(hd, K0)
    for _ in range(5):
        term = mk_pair(mk_app(hd, K0), term)
    dist, calls = _count_term_eq(monkeypatch, term)
    assert len(dist) == 64
    assert calls <= 20_000


def test_hd_layer_step_merges_only_what_fired(monkeypatch):
    # seven wires of `Hd |0>`: 254 steps, 128 summands.  A step that
    # rebuilt the summands it did not fire pushed 54,539 entries through
    # canonical construction here.
    hd = corpus_program("gates").defs["Hd"]
    term = mk_app(hd, K0)
    for _ in range(6):
        term = mk_pair(mk_app(hd, K0), term)
    entries = 0
    original = core._build

    def counted(pairs):
        nonlocal entries
        pairs = list(pairs)
        entries += len(pairs)
        return original(pairs)

    monkeypatch.setattr(core, "_build", counted)
    trace = evaluate(term)
    assert isinstance(trace.final, NormalForm)
    assert len(trace.steps) == 254
    assert len(trace.final.dist) == 128
    assert entries <= 10_000


def test_gate_chain_skips_self_comparison(monkeypatch):
    # 16 one-wire gates on |0>, 32 steps.  Comparing the picked redex with
    # itself walked each gate's body: 4,572 recursive _term_eq calls.
    gates = corpus_program("gates").defs
    term = K0
    for name in ("Hd", "Z", "NOT", "Z") * 4:
        term = mk_app(gates[name], term)
    dist, calls = _count_term_eq(monkeypatch, term)
    assert len(dist) == 1
    assert calls <= 2_500


def _gate_chain(names):
    gates = corpus_program("gates").defs
    term = K0
    for name in names:
        term = mk_app(gates[name], term)
    return term


CHAIN_28 = ("Hd", "NOT", "Z", "Z") * 7  # 56 steps on |0>


def test_gate_chain_compares_shared_siblings_once(monkeypatch):
    # Plugging through subst_term rebuilt every sibling of the path, so
    # each step compared fresh copies of the gates' bodies: 4,761
    # recursive _term_eq calls here.
    dist, calls = _count_term_eq(monkeypatch, _gate_chain(CHAIN_28))
    assert len(dist) == 2
    assert calls <= 2_000


def test_gate_chain_search_resumes_at_the_plug(monkeypatch):
    # The redex search rebuilds each node it walks around the hole: a
    # frame for each level it passes and the redex itself.  Searching
    # every new summand again from its root walked 1,244 nodes here, 56
    # steps under up to 27 frames; resumed where the fired part was
    # plugged in, the search walks about two nodes a step.  Plugging
    # rebuilds nodes around fired terms, never around the hole, so only
    # the search is counted.
    walked = 0

    def counted(rebuild):
        def wrapped(node, child):
            nonlocal walked
            walked += child is reduction._HOLE_VAR
            return rebuild(node, child)

        return wrapped

    rebuilds = {rule: counted(f) for rule, f in reduction._REBUILD.items()}
    monkeypatch.setattr(reduction, "_REBUILD", rebuilds)
    trace = evaluate(_gate_chain(CHAIN_28))
    assert isinstance(trace.final, NormalForm)
    assert len(trace.steps) == 56
    assert 0 < walked <= 3 * len(trace.steps)


def test_gate_chain_substitutes_each_instance_once(monkeypatch):
    # A beta over an orthonormal annotation substituted the gate's body at
    # every element on every fire: 129 subst_dist calls here.  Each body's
    # instances are now substituted once, on the freshly parsed gates.
    calls = 0
    original = subst.subst_dist

    def counted(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(subst, "subst_dist", counted)
    trace = evaluate(_gate_chain(CHAIN_28))
    assert isinstance(trace.final, NormalForm)
    assert len(trace.steps) == 56
    assert calls <= 30


def test_gate_chain_leaves_no_reference_cycle():
    # The redex cached on a summand must not hold that summand: a record
    # of the path's original nodes left 5,239 cyclic objects here.
    term = _gate_chain(CHAIN_28)
    gc.collect()
    gc.disable()
    try:
        trace = evaluate(term)
        assert isinstance(trace.final, NormalForm)
        assert len(trace.steps) == 56
        del trace
        assert gc.collect() == 0
    finally:
        gc.enable()
