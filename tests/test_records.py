"""The package's node, type and record classes: repr text, equality,
hashing, frozen fields, `replace`, and copy and pickle round trips.

The repr texts are pinned as the generated methods of the standard
library's `dataclasses` printed them, so the shared base that replaced
that code generation must print every class alike."""

import copy
import pickle

import numpy as np
import pytest

from basislam.basis import STD
from basislam.checker import Binding, Derivation, HarnessReport, HarnessStep
from basislam.core import (
    ABS,
    AbsBasis,
    App,
    Case,
    FrozenError,
    Ket,
    Lam,
    LetPair,
    Pair,
    Settings,
    Var,
    replace,
    single,
)
from basislam.corpus import CorpusRow
from basislam.reduction import (
    NormalForm,
    Reduced,
    RuleTag,
    Stuck,
    Trace,
    _Redex,
)
from basislam.syntax import Goal, Program
from basislam.typesem import Arrow, BasisType, Prod, Sharp
from basislam.unitary import UnitaryReport

K0, K1, X = Ket(0), Ket(1), Var("x")
D0, D1, DX = single(K0), single(K1), single(X)
APP = App(X, K0)
B = BasisType(STD)
BIND = Binding(B, STD)
NF = NormalForm(D0)

# one instance of every class, built afresh on each call; nodes compare
# by identity, so two calls share the nodes their fields hold
SAMPLES = {
    "Settings": lambda: Settings(),
    "AbsBasis": lambda: AbsBasis(),
    "Ortho": lambda: STD,
    "Var": lambda: X,
    "Ket": lambda: K1,
    "Lam": lambda: Lam("x", ABS, DX),
    "Pair": lambda: Pair(K0, X),
    "App": lambda: App(X, K0),
    "LetPair": lambda: LetPair("a", STD, "b", ABS, X, D0),
    "Case": lambda: Case(X, (D0,), (D1,)),
    "TermDist": lambda: D0,
    "Reduced": lambda: Reduced(D0, RuleTag.BETA),
    "NormalForm": lambda: NormalForm(D0),
    "Stuck": lambda: Stuck("free variable", X),
    "Trace": lambda: Trace([(D0, RuleTag.BETA)], NF, 1),
    "_Redex": lambda: _Redex(
        ((APP, RuleTag.CTX_APP_RIGHT),), APP, K0, RuleTag.BETA
    ),
    "Binding": lambda: Binding(B, STD),
    "Derivation": lambda: Derivation(
        "Ax", (("x", BIND),), DX, B, (Derivation("Ket", (), D0, B),), "n"
    ),
    "HarnessStep": lambda: HarnessStep(0, "Beta", True),
    "HarnessReport": lambda: HarnessReport(
        False, [HarnessStep(1, "Beta", False, "m")], "f"
    ),
    "BasisType": lambda: B,
    "Arrow": lambda: Arrow(B, Sharp(B)),
    "Prod": lambda: Prod(B, B),
    "Sharp": lambda: Sharp(B),
    "Goal": lambda: Goal("g", B, 3),
    "Program": lambda: Program({"B": STD}, {"id": D0}, [Goal("g", B, 3)]),
    "CorpusRow": lambda: CorpusRow("eval", "Hd |0>", True),
    "UnitaryReport": lambda: UnitaryReport(
        np.eye(2, dtype=complex), STD, True, 0.0, (0, 1, 0j)
    ),
}

REPRS = {
    "Settings": "Settings(eps=1e-09, max_steps=100000)",
    "AbsBasis": "AbsBasis",
    "Ortho": "Ortho(B)",
    "Var": "Var(name='x')",
    "Ket": "Ket(bit=1)",
    "Lam": "Lam(var='x', basis=AbsBasis, body=TermDist(1 entries))",
    "Pair": "Pair(left=Ket(bit=0), right=Var(name='x'))",
    "App": "App(fun=Var(name='x'), arg=Ket(bit=0))",
    "LetPair": (
        "LetPair(var1='a', basis1=Ortho(B), var2='b', basis2=AbsBasis, "
        "scrutinee=Var(name='x'), body=TermDist(1 entries))"
    ),
    "Case": (
        "Case(scrutinee=Var(name='x'), patterns=(TermDist(1 entries),), "
        "branches=(TermDist(1 entries),))"
    ),
    "TermDist": "TermDist(1 entries)",
    "Reduced": (
        "Reduced(dist=TermDist(1 entries), rule=<RuleTag.BETA: 'Beta'>)"
    ),
    "NormalForm": "NormalForm(dist=TermDist(1 entries))",
    "Stuck": "Stuck(reason='free variable', offending=Var(name='x'))",
    "Trace": (
        "Trace(steps=[(TermDist(1 entries), <RuleTag.BETA: 'Beta'>)], "
        "final=NormalForm(dist=TermDist(1 entries)), fuel_used=1)"
    ),
    "_Redex": (
        "_Redex(frames=((App(fun=Var(name='x'), arg=Ket(bit=0)), "
        "<RuleTag.CTX_APP_RIGHT: 'CtxAppRight'>),), "
        "redex_repr=App(fun=Var(name='x'), arg=Ket(bit=0)), "
        "slot=Ket(bit=0), rule=<RuleTag.BETA: 'Beta'>)"
    ),
    "Binding": "Binding(type=BasisType(basis=Ortho(B)), basis=Ortho(B))",
    "Derivation": (
        "Derivation(rule='Ax', ctx=(('x', Binding(type=BasisType("
        "basis=Ortho(B)), basis=Ortho(B))),), term=TermDist(1 entries), "
        "goal=BasisType(basis=Ortho(B)), premises=(Derivation(rule='Ket', "
        "ctx=(), term=TermDist(1 entries), goal=BasisType(basis=Ortho(B)), "
        "premises=(), note=''),), note='n')"
    ),
    "HarnessStep": "HarnessStep(index=0, rule='Beta', ok=True, message='')",
    "HarnessReport": (
        "HarnessReport(ok=False, steps=[HarnessStep(index=1, rule='Beta', "
        "ok=False, message='m')], failure='f')"
    ),
    "BasisType": "BasisType(basis=Ortho(B))",
    "Arrow": (
        "Arrow(dom=BasisType(basis=Ortho(B)), "
        "cod=Sharp(inner=BasisType(basis=Ortho(B))))"
    ),
    "Prod": (
        "Prod(left=BasisType(basis=Ortho(B)), right=BasisType(basis=Ortho(B)))"
    ),
    "Sharp": "Sharp(inner=BasisType(basis=Ortho(B)))",
    "Goal": "Goal(name='g', type=BasisType(basis=Ortho(B)), line=3)",
    "Program": (
        "Program(bases={'B': Ortho(B)}, defs={'id': TermDist(1 entries)}, "
        "goals=[Goal(name='g', type=BasisType(basis=Ortho(B)), line=3)])"
    ),
    "CorpusRow": (
        "CorpusRow(section='eval', name='Hd |0>', ok=True, detail='')"
    ),
    "UnitaryReport": (
        "UnitaryReport(matrix=array([[1.+0.j, 0.+0.j],\n"
        "       [0.+0.j, 1.+0.j]]), basis=Ortho(B), square=True, "
        "deviation=0.0, witness=(0, 1, 0j))"
    ),
}

BY_IDENTITY = (
    "AbsBasis", "Ortho", "Var", "Ket", "Lam", "Pair", "App", "LetPair",
    "Case", "TermDist", "Reduced", "NormalForm", "Stuck", "Binding",
    "BasisType", "Arrow", "Prod", "Sharp",
)
HASHED_BY_FIELDS = ("Settings", "Derivation", "_Redex")
UNHASHABLE = (
    "Trace", "HarnessStep", "HarnessReport", "CorpusRow", "Goal", "Program",
    "UnitaryReport",
)
FROZEN = BY_IDENTITY + HASHED_BY_FIELDS


def test_every_class_is_sampled_once():
    assert set(SAMPLES) == set(REPRS)
    assert len(SAMPLES) == 28
    assert sorted(BY_IDENTITY + HASHED_BY_FIELDS + UNHASHABLE) == sorted(
        SAMPLES
    )
    assert all(type(f()).__name__ == name for name, f in SAMPLES.items())


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_repr_text_is_the_dataclass_format(name):
    assert repr(SAMPLES[name]()) == REPRS[name]


def test_repr_of_a_record_that_holds_itself():
    report = SAMPLES["HarnessReport"]()
    report.steps.append(report)
    assert repr(report) == (
        "HarnessReport(ok=False, steps=[HarnessStep(index=1, rule='Beta', "
        "ok=False, message='m'), ...], failure='f')"
    )


@pytest.mark.parametrize("name", BY_IDENTITY)
def test_frozen_nodes_compare_and_hash_by_identity(name):
    make = SAMPLES[name]
    a = make()
    b = copy.copy(a)
    assert a == a and hash(a) == object.__hash__(a)
    assert b is not a and b != a and repr(b) == repr(a)


@pytest.mark.parametrize("name", HASHED_BY_FIELDS)
def test_value_records_compare_and_hash_by_fields(name):
    a, b = SAMPLES[name](), SAMPLES[name]()
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != object() and a != 1


def test_value_records_differ_when_a_field_does():
    assert Settings(eps=1e-6) != Settings()
    assert hash(Settings(max_steps=5)) == hash(Settings(max_steps=5))
    d = SAMPLES["Derivation"]()
    assert Derivation(d.rule, d.ctx, d.term, d.goal, d.premises, "") != d
    r = SAMPLES["_Redex"]()
    assert _Redex(r.frames, r.redex_repr, K1, r.rule) != r


@pytest.mark.parametrize("name", UNHASHABLE)
def test_mutable_records_compare_by_fields_and_do_not_hash(name):
    a, b = SAMPLES[name](), SAMPLES[name]()
    if name == "UnitaryReport":  # arrays compare elementwise
        b.matrix = a.matrix
    assert a is not b and a == b
    assert a != object()
    with pytest.raises(TypeError):
        hash(a)


def test_mutable_records_differ_when_a_field_does():
    assert CorpusRow("eval", "x", True) != CorpusRow("eval", "x", False)
    assert Goal("g", B, 3) != Goal("g", B, 4)
    report = SAMPLES["HarnessReport"]()
    report.ok = True
    assert report != SAMPLES["HarnessReport"]()


def test_equal_fields_of_another_class_are_not_equal():
    assert HarnessStep(0, "Beta", True) != CorpusRow(0, "Beta", True)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_copy_and_pickle_round_trips(name):
    x = SAMPLES[name]()
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(y) is type(x) and repr(y) == repr(x)
        assert y.__dict__.keys() == x.__dict__.keys()
    if name in HASHED_BY_FIELDS or name in UNHASHABLE[:-1]:
        # a shallow copy holds the same nodes, which compare by identity
        assert copy.copy(x) == x


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_fields_refuse_assignment_and_deletion(name):
    x = SAMPLES[name]()
    for attr in x._fields + ("other",):
        with pytest.raises(FrozenError, match="cannot assign"):
            setattr(x, attr, None)
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(x, attr)
    assert repr(x) == REPRS[name]


@pytest.mark.parametrize("name", UNHASHABLE)
def test_mutable_records_take_assignments(name):
    x = SAMPLES[name]()
    attr = x._fields[-1]
    setattr(x, attr, "changed")
    assert getattr(x, attr) == "changed" and repr(x).endswith("='changed')")
    delattr(x, attr)
    assert attr not in x.__dict__


def test_fields_are_the_constructor_parameters_in_order():
    assert Settings._fields == ("eps", "max_steps")
    assert LetPair._fields == (
        "var1", "basis1", "var2", "basis2", "scrutinee", "body"
    )
    assert Sharp._fields == ("inner",) and AbsBasis._fields == ()
    assert Trace._fields == ("steps", "final", "fuel_used")


def test_defaults_are_kept():
    assert (Settings.eps, Settings.max_steps) == (1e-9, 100000)
    assert Trace().steps == [] and Trace().steps is not Trace().steps
    assert Program().goals == [] and Program().bases is not Program().bases
    assert HarnessReport(True).steps == []
    assert Derivation("r", (), D0, B).premises == ()


def test_replace_goes_through_the_constructor():
    assert replace(Settings(), eps=1e-6) == Settings(1e-6, 100000)
    with pytest.raises(ValueError):
        replace(Settings(), eps=0)
    with pytest.raises(TypeError):
        replace(Settings(), max_steps=True)
    with pytest.raises(TypeError):
        replace(Settings(), tolerance=1e-6)
    sharp = replace(Sharp(X), inner=Sharp(B))  # no # under # either
    assert type(sharp) is Sharp and type(sharp.inner) is BasisType
    row = replace(CorpusRow("eval", "x", True), ok=False)
    assert row == CorpusRow("eval", "x", False)
