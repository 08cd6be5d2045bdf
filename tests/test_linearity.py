"""The linearity law against the three checks it replaced.

`typesem.linear_images_member` decides whether the images of generator
tuples close under unit combinations.  The references below are the
earlier code, which wrote that check out three times: the Sem rule's
image check, the span-domain tail of arrow membership, and the grid of
curried membership.  All three now enumerate through
`typesem.pools_realize`.  On generated image families and maps, the Sem
rule must give the same note, and arrow membership the same verdicts.
"""

import itertools

import numpy as np
import pytest

from basislam.basis import HAD, NAMED_BASES, STD, product_basis
from basislam.checker import _SEM_NOTES
from basislam.core import (
    Ket,
    Lam,
    Ortho,
    Var,
    add,
    basis_eq,
    first_overlap,
    mk_app,
    mk_case,
    mk_lam,
    mk_pair,
    norm,
    sc_eq,
    scale,
    single,
)
from basislam.corpus import corpus_program
from basislam.reduction import evaluate_value
from basislam.syntax import parse_type
from basislam.typesem import (
    Arrow,
    Prod,
    Sharp,
    Undecidable,
    _arrow_member,
    _curried_member,
    _member,
    finite_members,
    is_member,
    is_member_phase,
    linear_images_member,
    linear_pool,
    pools_realize,
    realizes,
    span_generators,
)
from gen import random_combination, random_ortho, random_state

K0, K1 = single(Ket(0)), single(Ket(1))
GATES = corpus_program("gates").defs
ONE = Ortho((K0,), "O")  # a one-generator basis
D = random_ortho(np.random.default_rng(7), 2)  # four summands an element
BASES = {**NAMED_BASES, "D": D, "O": ONE}


# ---------------------------------------------------------------------------
# References.


def ref_sem_note(images, goal):
    """The Sem rule's image check; its note, or None when it passes."""
    try:
        if len(images) == 1:
            if not is_member_phase(images[0], goal):
                return "semantic image check failed"
            return None
        for w in images:
            if not is_member(w, goal):
                return "semantic image check failed"
        if first_overlap(images) is not None:
            return "semantic images are not orthogonal"
        if isinstance(goal, Sharp):
            return None
        if isinstance(goal, Prod):
            half = 2**-0.5
            for i in range(len(images)):
                for j in range(i + 1, len(images)):
                    for phase in (1, 1j):
                        combo = add(
                            scale(half, images[i]),
                            scale(half * phase, images[j]),
                        )
                        if not is_member(combo, goal):
                            return (
                                "a combination of semantic images "
                                "leaves the goal"
                            )
            return None
        return "goal shape not closed under the enumerated combinations"
    except Undecidable as e:
        return str(e)


def ref_arrow_member(v, t):
    lams = [u for u, _ in v.entries]
    if not all(isinstance(u, Lam) for u in lams):
        return False
    annotation = lams[0].basis
    if not all(basis_eq(u.basis, annotation) for u in lams[1:]):
        return False
    if not sc_eq(norm(v), 1.0):
        return False
    dom, cod = t.dom, t.cod

    members = finite_members(dom)
    if members is not None:
        return all(realizes(mk_app(v, m), cod) for m in members)

    gens = span_generators(dom)
    if gens is None:
        raise Undecidable()
    if isinstance(cod, Arrow):
        return ref_curried_member(v, t)
    if not isinstance(cod, Sharp):
        raise Undecidable()
    if span_generators(cod) is None:
        raise Undecidable()
    images = []
    for g in gens:
        w = evaluate_value(mk_app(v, g))
        if w is None or not _member(w, cod, True):
            return False
        images.append(w)
    if first_overlap(images) is not None:
        if isinstance(dom, Sharp):
            return False
        raise Undecidable()
    return True


def ref_curried_member(v, t):
    layers = []
    cur = t
    while isinstance(cur, Arrow):
        pool = linear_pool(cur.dom)
        if pool is None:
            raise Undecidable()
        layers.append(pool)
        cur = cur.cod
    span_cod = isinstance(cur, Sharp) and span_generators(cur) is not None
    if not span_cod and not isinstance(cur, Prod):
        raise Undecidable()
    finite_axes = [k for k, (sp, _) in enumerate(layers) if not sp]
    sharp_axes = [k for k, (sp, _) in enumerate(layers) if sp]
    half = 2.0**-0.5

    for fixed in itertools.product(*(layers[k][1] for k in finite_axes)):
        grid = {}
        index_pools = [range(len(layers[k][1])) for k in sharp_axes]
        for varying in itertools.product(*index_pools):
            args = [None] * len(layers)
            for k, val in zip(finite_axes, fixed):
                args[k] = val
            for k, idx in zip(sharp_axes, varying):
                args[k] = layers[k][1][idx]
            app = v
            for a in args:
                app = mk_app(app, a)
            w = evaluate_value(app)
            if w is None or not _member(w, cur, True):
                return False
            grid[varying] = w
        if span_cod:
            if first_overlap(list(grid.values())) is not None:
                return False
        else:
            for pos in range(len(sharp_axes)):
                for base in grid:
                    for other in grid:
                        if other[pos] <= base[pos]:
                            continue
                        if any(
                            other[q] != base[q]
                            for q in range(len(sharp_axes))
                            if q != pos
                        ):
                            continue
                        for ph in (1, 1j):
                            combo = add(
                                scale(half, grid[base]),
                                scale(half * ph, grid[other]),
                            )
                            if not _member(combo, cur, True):
                                return False
    if not span_cod and len(sharp_axes) > 1:
        raise Undecidable()
    return True


# ---------------------------------------------------------------------------
# Generated inputs.


def _outcome(f):
    try:
        return f()
    except Undecidable:
        return "undecidable"


def _phase(rng):
    return complex(np.exp(1j * rng.uniform(0, 2 * np.pi)))


def _phased(rng, images):
    return [scale(_phase(rng), w) for w in images]


def _families(rng, images, near):
    """Families drawn from a list of images: the first, all of them,
    the first two, the first twice, the first beside a value near it,
    all of them reversed; each also under random global phases."""
    out = [images[:1], images, images[:2], [images[0], images[0]]]
    out.append([images[0], near])
    out.append(list(reversed(images)))
    return out + [_phased(rng, f) for f in out]


def _span_families(rng, elements):
    """Families from orthonormal elements and from a random unitary
    image of them, with a random combination as the near value."""
    n = len(elements)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, _ = np.linalg.qr(m)
    rotated = [
        add(*(scale(complex(q[i, k]), e) for i, e in enumerate(elements)))
        for k in range(n)
    ]
    near = random_combination(rng, elements)
    return _families(rng, list(elements), near) + _families(
        rng, rotated, near
    )


def _product_families(rng, left, right):
    """Images that are pairs: sharing the left factor, sharing the right
    factor, sharing neither; with factors from the bases and from their
    spans."""
    lc = random_combination(rng, left)
    rc = random_combination(rng, right)
    out = []
    for ls in (list(left), [lc] * len(left)):
        for rs in (list(right), [rc] * len(right)):
            out += _families(
                rng,
                [mk_pair(l, r) for l, r in zip(ls, rs)],
                mk_pair(lc, rc),
            )
    same_left = [mk_pair(left[0], r) for r in right]
    same_right = [mk_pair(l, right[-1]) for l in left]
    out += _families(rng, same_left, mk_pair(left[0], rc))
    out += _families(rng, same_right, mk_pair(lc, right[-1]))
    return out


_FUNCTIONS = [GATES["NOT"], GATES["Z"], GATES["Cloner"], GATES["Hd"]]
# NOT times i, written out: (NOT + I_NOT) / sqrt 2 is in [B] -> [B] up to
# a phase, but (NOT + i I_NOT) / sqrt 2 sends every argument to zero
I_NOT = mk_lam(
    "x",
    STD,
    mk_case(single(Var("x")), STD.elements, (scale(1j, K1), scale(1j, K0))),
)


SEM_CASES = [
    ("#[B]", lambda rng: _span_families(rng, STD.elements)),
    ("#[X]", lambda rng: _span_families(rng, STD.elements)),
    ("#[D]", lambda rng: _span_families(rng, D.elements)),
    ("#[O]", lambda rng: _span_families(rng, ONE.elements)),
    ("[B]", lambda rng: _span_families(rng, STD.elements)),
    ("#([B] -> [B])", lambda rng: _families(rng, _FUNCTIONS, _FUNCTIONS[0])),
    ("[B] -> [B]", lambda rng: _families(rng, _FUNCTIONS, _FUNCTIONS[1])),
    (
        "[B] * #[B]",
        lambda rng: _product_families(rng, STD.elements, STD.elements),
    ),
    (
        "[B] * [B]",
        lambda rng: _product_families(rng, STD.elements, STD.elements),
    ),
    (
        "#[B] * #[X]",
        lambda rng: _product_families(rng, STD.elements, HAD.elements),
    ),
    (
        "[D] * #[B]",
        lambda rng: _product_families(rng, D.elements, STD.elements),
    ),
    (
        "[B] * #([B] -> [B])",
        lambda rng: _product_families(
            rng, STD.elements, [GATES["NOT"], I_NOT]
        ),
    ),
]


def sem_note(images, goal):
    """The Sem rule's note for a span variable whose generators have
    these images."""
    try:
        failed = pools_realize([(True, images)], lambda args: args[0], goal)
    except Undecidable as e:
        return str(e)
    return None if failed is None else _SEM_NOTES[failed]


@pytest.mark.parametrize(
    "text, families", SEM_CASES, ids=[c[0] for c in SEM_CASES]
)
def test_sem_notes_match_the_reference(text, families):
    goal = parse_type(text, BASES)
    rng = np.random.default_rng(len(text))
    notes = set()
    for images in families(rng):
        want = ref_sem_note(images, goal)
        assert sem_note(images, goal) == want
        notes.add(want)
    assert len(notes) >= 2


def test_sem_cases_reach_every_note():
    notes = set()
    for text, families in SEM_CASES:
        goal = parse_type(text, BASES)
        for images in families(np.random.default_rng(len(text))):
            notes.add(ref_sem_note(images, goal))
    assert notes >= {
        None,
        "semantic image check failed",
        "semantic images are not orthogonal",
        "a combination of semantic images leaves the goal",
        "goal shape not closed under the enumerated combinations",
        "membership undecidable for this domain",
    }


# ---------------------------------------------------------------------------
# Maps given by their images of the domain generators.


def _table(basis, images, var="x"):
    """The abstraction over basis sending its k-th element to images[k]."""
    x = single(Var(var))
    return mk_lam(var, basis, mk_case(x, basis.elements, images))


def _table2(left, right, grid):
    """The curried abstraction sending (left[i], right[j]) to grid[i][j]."""
    x, y = single(Var("x")), single(Var("y"))
    rows = [mk_case(y, right.elements, row) for row in grid]
    body = mk_case(x, left.elements, rows)
    return mk_lam("x", left, mk_lam("y", right, body))


def _one_layer_maps(basis, families):
    n = len(basis.elements)
    return [_table(basis, f) for f in families if len(f) == n]


def _grids(rng):
    """Image grids of the 2 x 2 argument grid over [B]: product maps,
    which keep every single-axis combination a product, entangling
    ones, maps into one span, and random values."""
    a = [random_combination(rng, STD.elements) for _ in range(2)]
    b = [random_combination(rng, STD.elements) for _ in range(2)]
    k = STD.elements
    cells = [
        lambda i, j: mk_pair(a[i], b[j]),
        lambda i, j: mk_pair(k[i], k[i ^ j]),  # CNOT
        lambda i, j: mk_pair(k[j], k[i]),  # swap
        lambda i, j: mk_pair(a[0], k[i ^ j]),
        lambda i, j: mk_pair(k[0], k[i ^ j]),
        lambda i, j: mk_pair(k[i], b[0]),
        lambda i, j: random_state(rng, 1),
        lambda i, j: k[i ^ j],
        lambda i, j: k[j],
    ]
    grids = [[[f(i, j) for j in range(2)] for i in range(2)] for f in cells]
    return grids + [[_phased(rng, row) for row in g] for g in grids]


def _arrow_cases():
    rng = np.random.default_rng(17)
    one_layer = []
    for basis in (STD, HAD, ONE):
        maps = _one_layer_maps(basis, _span_families(rng, STD.elements))
        maps += _one_layer_maps(
            basis, _product_families(rng, STD.elements, STD.elements)
        )
        maps += [GATES["NOT"], GATES["Hd"], GATES["Cloner"], GATES["CNOT"]]
        cods = ("#[B]", "#[X]", "#([B] * [B])", "[B] * [B]", "#[B] * #[B]")
        for cod in cods:
            for dom in ("#[B]", "#[X]", "#[O]", "[B]"):
                one_layer.append((f"{dom} -> {cod}", maps))
    two_layer = []
    maps = [_table2(STD, STD, g) for g in _grids(rng)]
    maps += [GATES["CNOT"], GATES["CNOTX"]]
    for text in (
        "#[B] -> #[B] -> #[B] * #[B]",
        "#[B] -> [B] -> #[B] * #[B]",
        "[B] -> #[B] -> #[B] * #[B]",
        "#[B] -> #[B] -> [B] * #[B]",
        "#[B] -> #[B] -> #([B] * [B])",
        "#[B] -> #[B] -> #[B]",
        "#[B] -> [B] -> #[B]",
        "#[B] -> #[B] -> [B]",
        "#[X] -> #[X] -> #[X] * #[X]",
    ):
        two_layer.append((text, maps))
    pairs = product_basis(STD, STD)
    prod_maps = [
        _table(pairs, f, "z")
        for f in _span_families(rng, pairs.elements)
        if len(f) == 4
    ]
    prod_maps += [
        _table(pairs, [K0, K1, K0, K1], "z"),
        _table(pairs, [K0, K1, K1, K0], "z"),
    ]
    products = [
        (text, prod_maps)
        for text in (
            "#[B] * #[B] -> #([B] * [B])",
            "#[B] * #[B] -> #[B]",
            "[B] * #[B] -> #([B] * [B])",
            "#[B] * #[B] -> #[B] * #[B]",
            "#([B] * [B]) -> #([B] * [B])",
        )
    ]
    return one_layer + two_layer + products


ARROW_CASES = _arrow_cases()


@pytest.mark.parametrize(
    "text, maps", ARROW_CASES, ids=[c[0] for c in ARROW_CASES]
)
def test_arrow_membership_matches_the_reference(text, maps):
    t = parse_type(text, BASES)
    assert isinstance(t, Arrow)
    for v in maps:
        want = _outcome(lambda: ref_arrow_member(v, t))
        assert _outcome(lambda: _arrow_member(v, t)) == want
        if isinstance(t.cod, Arrow) or isinstance(t.dom, Sharp):
            got = _outcome(lambda: _curried_member(v, t))
            assert got == _outcome(lambda: ref_curried_member(v, t))


def test_arrow_cases_reach_every_verdict():
    verdicts = {}
    for text, maps in ARROW_CASES:
        t = parse_type(text, BASES)
        for v in maps:
            verdicts.setdefault(_outcome(lambda: ref_arrow_member(v, t)), text)
    assert set(verdicts) == {True, False, "undecidable"}


def test_two_span_axes_reach_every_verdict():
    t = parse_type("#[B] -> #[B] -> #[B] * #[B]")
    maps = dict(ARROW_CASES)["#[B] -> #[B] -> #[B] * #[B]"]
    assert {_outcome(lambda: _arrow_member(v, t)) for v in maps} == {
        False,
        "undecidable",
    }


# ---------------------------------------------------------------------------
# The law on its own.


def test_law_on_two_axes_combines_along_one_axis_only():
    # (0,0) and (1,1) differ at two places, so their entangled
    # combination is never formed; every single-axis one is a product
    grid = {
        (i, j): mk_pair(single(Ket(i)), single(Ket(j)))
        for i in range(2)
        for j in range(2)
    }
    assert linear_images_member(grid, parse_type("#[B] * #[B]")) is None
    assert linear_images_member(grid, parse_type("[B] * [B]")) == "combination"
    # the images of CNOT: (0,0) and (1,0) combine to an entangled value
    cnot = {**grid, (1, 0): mk_pair(K1, K1), (1, 1): mk_pair(K1, K0)}
    assert linear_images_member(cnot, parse_type("#[B] * #[B]")) == (
        "combination"
    )


def test_law_names_the_failed_condition():
    sharp, plain = parse_type("#[B]"), parse_type("[B]")
    assert linear_images_member({(0,): K0}, plain) is None
    assert linear_images_member({(0,): K0, (1,): K1}, sharp) is None
    assert linear_images_member({(0,): K0, (1,): K0}, sharp) == "overlap"
    assert linear_images_member({(0,): K0, (1,): K1}, plain) == "shape"
