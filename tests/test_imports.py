"""Every imported name is used: the package modules (except the
re-exporting ``__init__``), the scripts and the tests.  Every private
module-level name of the package is read somewhere in the package, and
every parameter of the package and the scripts is read by its
function.  Every fact the package stores on a node, a basis or a type
is named in core's "Node keys" comment under the kind of object that
stores it, and that comment names no other."""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted(
    [
        p
        for p in (ROOT / "src" / "basislam").glob("*.py")
        if p.name != "__init__.py"
    ]
    + list((ROOT / "scripts").glob("*.py"))
    + list((ROOT / "tests").glob("*.py"))
)


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that no expression reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [
        f"line {line}: {name}"
        for name, line in sorted(imported.items(), key=lambda e: e[1])
        if name not in used
    ]


def private_definitions(source: str) -> list[str]:
    """Module-level functions, classes and assigned names starting with
    a single underscore."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names.extend(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign):
            names.append(node.target.id)
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def names_read(source: str) -> set[str]:
    """Names a module loads, attributes it reads, and names it imports."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_private_detectors():
    src = (
        "_a = 1\n_b: int = 2\ndef _f(): return _a\n"
        "class _C: pass\nx = m._C\n"
    )
    assert private_definitions(src) == ["_a", "_b", "_f", "_C"]
    assert names_read(src) >= {"_a", "_C"}
    assert "_b" not in names_read(src) and "_f" not in names_read(src)


def test_private_names_are_read():
    sources = [
        p.read_text(encoding="utf-8")
        for p in sorted((ROOT / "src" / "basislam").glob("*.py"))
    ]
    read = set().union(*(names_read(s) for s in sources))
    defined = [n for s in sources for n in private_definitions(s)]
    assert sorted(n for n in defined if n not in read) == []


def test_detector_flags_only_unused_names():
    src = "import os\nimport numpy as np\nfrom a.b import c, d\nnp.zeros(c)\n"
    assert unused_imports(src) == ["line 1: os", "line 3: d"]


@pytest.mark.parametrize(
    "path", FILES, ids=lambda p: str(p.relative_to(ROOT))
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unused_parameters(source: str) -> list[str]:
    """Parameters of a function, method or lambda that its body never
    reads, a method's receiver aside.  Two kinds are allowed: the
    command handlers' (args, bases, defs), which cli.main passes to
    every handler, and the parameters of dunder protocol methods."""
    tree = ast.parse(source)
    methods = {
        id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
        for f in c.body
    }
    found = []
    for fn in ast.walk(tree):
        if not isinstance(
            fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        name = getattr(fn, "name", "lambda")
        if name.startswith("__") and name.endswith("__"):
            continue
        a = fn.args
        params = [*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg]
        params = [p.arg for p in params if p is not None]
        if id(fn) in methods:
            params = params[1:]
        if name.startswith("_cmd_"):
            params = [p for p in params if p not in ("args", "bases", "defs")]
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        read = {
            n.id for b in body for n in ast.walk(b) if isinstance(n, ast.Name)
        }
        found += [(fn.lineno, name, p) for p in params if p not in read]
    return [f"line {line}: {name}({p})" for line, name, p in sorted(found)]


def test_parameter_detector():
    src = (
        "def f(a, b, *c, d, **e):\n    return a + d\n"
        "class C:\n    def m(self, x):\n        return lambda y: 1\n"
        "    def __exit__(self, kind, exc, tb):\n        pass\n"
        "def _cmd_x(args, bases, defs, extra):\n    pass\n"
    )
    assert unused_parameters(src) == [
        "line 1: f(b)",
        "line 1: f(c)",
        "line 1: f(e)",
        "line 4: m(x)",
        "line 5: lambda(y)",
        "line 8: _cmd_x(extra)",
    ]


@pytest.mark.parametrize(
    "path",
    [p for p in FILES if p.parent.name != "tests"],
    ids=lambda p: str(p.relative_to(ROOT)),
)
def test_no_unused_parameters(path):
    assert unused_parameters(path.read_text(encoding="utf-8")) == []


def test_settings_have_one_writer():
    """The only `global` statement of the package sits in the context
    manager that writes the ambient settings and session, so no other
    code rebinds a module-level value, and no module keeps ambient state
    in a context variable."""
    found = []
    for path in sorted((ROOT / "src" / "basislam").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = [
            alias.name for node in ast.walk(tree)
            if isinstance(node, ast.Import) for alias in node.names
        ] + [
            node.module for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
        ]
        assert "contextvars" not in imported, path.name
        # innermost enclosing function of every node: walk() is
        # breadth-first, so an inner function overwrites its outer one
        scope = {
            id(node): fn.name
            for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn)
        }
        found += [
            (path.name, scope.get(id(node)), node.names)
            for node in ast.walk(tree)
            if isinstance(node, ast.Global)
        ]
    assert found == [("core.py", "_ambient", ["_settings", "_session"])]


def cache_reads_by_exception(source: str) -> list[str]:
    """try statements that read a private attribute, a node cache such
    as `t._key`, and catch AttributeError: a miss then raises and
    catches an exception, about ten times the cost of `__dict__.get`."""

    def catches(handler: ast.ExceptHandler) -> bool:
        kinds = handler.type
        names = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
        return any(
            isinstance(n, ast.Name) and n.id == "AttributeError" for n in names
        )

    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Try):
            continue
        if not any(catches(h) for h in node.handlers if h.type is not None):
            continue
        found += [
            f"line {a.lineno}: {a.attr}"
            for stmt in node.body
            for a in ast.walk(stmt)
            if isinstance(a, ast.Attribute)
            and isinstance(a.ctx, ast.Load)
            and a.attr.startswith("_")
            and not a.attr.startswith("__")
        ]
    return found


def test_cache_read_detector():
    src = (
        "def f(t):\n    try:\n        return t._key\n"
        "    except AttributeError:\n        pass\n"
        "def g(t):\n    try:\n        return t._shape + t.name\n"
        "    except (KeyError, AttributeError):\n        return 0\n"
        "def h(t):\n    try:\n        return t._key\n"
        "    except KeyError:\n        pass\n"
        "def k(t):\n    try:\n        return t.name\n"
        "    except AttributeError:\n        pass\n"
        "def m(t):\n    return t.__dict__.get('_key')\n"
    )
    assert cache_reads_by_exception(src) == ["line 3: _key", "line 8: _shape"]


@pytest.mark.parametrize(
    "path",
    sorted((ROOT / "src" / "basislam").glob("*.py")),
    ids=lambda p: p.name,
)
def test_no_cache_read_by_exception(path):
    assert cache_reads_by_exception(path.read_text(encoding="utf-8")) == []


def value_flag_owners(source: str) -> dict[str, bool]:
    """For each class named in the module's `PureTerm = Union[...]`,
    whether it sets the pure-value flag: a `_value` class attribute, or
    a `["_value"]` item its `__init__` writes."""
    tree = ast.parse(source)
    union = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(
            isinstance(t, ast.Name) and t.id == "PureTerm"
            for t in node.targets
        )
    )
    members = union.slice.elts if isinstance(union.slice, ast.Tuple) else []
    owners = {n.id: False for n in members if isinstance(n, ast.Name)}
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef) or cls.name not in owners:
            continue
        for stmt in cls.body:
            if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "_value"
                for t in stmt.targets
            ):
                owners[cls.name] = True
            elif isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
                owners[cls.name] |= any(
                    isinstance(n, ast.Subscript)
                    and isinstance(n.ctx, ast.Store)
                    and isinstance(n.slice, ast.Constant)
                    and n.slice.value == "_value"
                    for n in ast.walk(stmt)
                )
    return owners


def test_value_flag_detector():
    src = (
        "class A:\n    _value = True\n"
        "class B:\n    def __init__(self, x):\n"
        "        self.__dict__['_value'] = x._value\n"
        "class C:\n    value = True\n"
        "class D:\n    def __init__(self):\n        self._value = 1\n"
        "T = Union[A, B, C, D]\n"
        "PureTerm = Union[A, B, C, D]\n"
    )
    assert value_flag_owners(src) == {
        "A": True, "B": True, "C": False, "D": False
    }


def test_every_pure_term_sets_the_value_flag():
    core = ROOT / "src" / "basislam" / "core.py"
    owners = value_flag_owners(core.read_text(encoding="utf-8"))
    assert len(owners) == 7
    assert [name for name, owned in owners.items() if not owned] == []


def node_facts_written(source: str) -> set[str]:
    """The private names a module writes into a node's dict: an item
    stored into `<x>.__dict__` or into a local named `fields`, or the
    name that `object.__setattr__` sets."""
    return {fact for _, fact in facts_written_by_owner(source)}


def node_keys_block(source: str) -> str:
    """Core's comment block from "# Node keys." to the first line that is
    not a comment, the "Memo tables" included, as one line."""
    lines = source.splitlines()
    start = next(i for i, s in enumerate(lines) if s.startswith("# Node keys."))
    block = []
    for line in lines[start:]:
        if not line.startswith("#"):
            break
        block.append(line[1:])
    return " ".join(block)


def node_facts_listed(source: str) -> set[str]:
    """The facts core's "Node keys" comment names: each is introduced
    as a backquoted private name in parentheses, "(`_key`"."""
    return set(re.findall(r"\(`(_\w+)`", node_keys_block(source)))


# The kinds of object a fact is stored on, by the classes that name them.
FACT_OWNERS = {
    "term": {"PureTerm", "Var", "Ket", "Lam", "Pair", "App", "LetPair", "Case"},
    "distribution": {"TermDist"},
    "basis": {"Basis", "Ortho", "AbsBasis"},
    "type": {"Type", "BasisType", "Arrow", "Prod", "Sharp"},
}


def _class_names(node) -> set[str]:
    """The names an annotation or an isinstance class argument mentions,
    quoted annotations included."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval").body
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _bindings(fn: ast.FunctionDef, cls: str) -> dict[str, set[str]]:
    """The classes each name in fn may hold, as far as the code tells:
    the first parameter of a method of cls, a parameter's annotation, a
    constructor call `x = C(...)`, an alias `fields = x.__dict__` (as
    "@x"), and a summand `t` of a loop `for t, c in d.entries`."""
    told: dict[str, set[str]] = {}
    args = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
    for a in args:
        if a.annotation is not None:
            told[a.arg] = _class_names(a.annotation)
    if cls and args:
        told[args[0].arg] = {cls}
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            value = node.value
            if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
                held = value.func.id
            elif (
                isinstance(value, ast.Attribute)
                and value.attr == "__dict__"
                and isinstance(value.value, ast.Name)
            ):
                held = "@" + value.value.id
            else:
                continue
            for t in node.targets:
                if isinstance(t, ast.Name):
                    told.setdefault(t.id, set()).add(held)
        elif (
            isinstance(node, ast.For)
            and isinstance(node.target, ast.Tuple)
            and isinstance(node.target.elts[0], ast.Name)
            and isinstance(node.iter, ast.Attribute)
            and node.iter.attr == "entries"
        ):
            told.setdefault(node.target.elts[0].id, set()).add("PureTerm")
    return told


def _fact_write(node):
    """(the expression written to, the fact) when node writes a private
    name into an object's dict, else None."""
    if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
        into, key = node.value, node.slice
        if isinstance(into, ast.Attribute) and into.attr == "__dict__":
            into = into.value
        elif not (isinstance(into, ast.Name) and into.id == "fields"):
            return None
    elif (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__setattr__"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "object"
        and len(node.args) > 1
    ):
        into, key = node.args[0], node.args[1]
    else:
        return None
    if isinstance(key, ast.Constant) and str(key.value).startswith("_"):
        return into, key.value
    return None


def facts_written_by_owner(source: str) -> set[tuple[str, str]]:
    """(owner, fact) for each private name a module writes into an
    object's dict, the owner being the kind of object written to (a key
    of FACT_OWNERS), or "?" when the code does not tell it.  A write
    under `if isinstance(x, C):` is on a C."""
    found = set()

    def classes(name, told, narrowed) -> set[str]:
        held = narrowed.get(name, told.get(name, set()))
        for alias in [c for c in held if c.startswith("@")]:
            held = held - {alias} | classes(alias[1:], told, narrowed)
        return held

    def visit(node, told, narrowed):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            return  # scanned with its own bindings
        write = _fact_write(node)
        if write is not None:
            into, fact = write
            held = (
                classes(into.id, told, narrowed)
                if isinstance(into, ast.Name)
                else set()
            )
            kinds = {k for k, names in FACT_OWNERS.items() if held & names}
            found.update((kind, fact) for kind in kinds or {"?"})
        test = node.test if isinstance(node, ast.If) else None
        if (
            isinstance(test, ast.Call)
            and isinstance(test.func, ast.Name)
            and test.func.id == "isinstance"
            and isinstance(test.args[0], ast.Name)
        ):
            inner = {**narrowed, test.args[0].id: _class_names(test.args[1])}
            for stmt in node.body:
                visit(stmt, told, inner)
            for stmt in node.orelse:
                visit(stmt, told, narrowed)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, told, narrowed)

    tree = ast.parse(source)
    visit(tree, {}, {})  # the module's own statements
    method_of = {
        id(fn): cls.name
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
    }
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            told = _bindings(fn, method_of.get(id(fn), ""))
            for stmt in fn.body:
                visit(stmt, told, {})
    return found


def facts_listed_by_owner(source: str) -> set[tuple[str, str]]:
    """(owner, fact) for each fact core's "Node keys" block lists by
    owner, in a phrase "<owner> facts (`_a`, `_b`, ...)"."""
    found = set()
    owners = "|".join(FACT_OWNERS)
    phrase = rf"\b({owners})\s+facts\s+\(([^)]*)\)"
    for owner, names in re.findall(phrase, node_keys_block(source)):
        found.update((owner, n) for n in re.findall(r"`(_\w+)`", names))
    return found


def test_node_fact_detectors():
    src = (
        "def f(t, d, out):\n"
        "    t.__dict__['_a'] = 1\n"
        "    fields = out.__dict__\n    fields['_b'] = fields['name'] = 2\n"
        "    object.__setattr__(t, '_c', 3)\n"
        "    d['_d'] = t._e = 4\n"
        "    return t.__dict__.get('_f')\n"
    )
    assert node_facts_written(src) == {"_a", "_b", "_c"}
    comment = (
        "x = 1\n"
        "# Node keys.  Nodes are immutable, and what a node knows about "
        "itself is\n# stored: the key (`_key`), a flag (`_value`, see\n#\n"
        "# it), made by `_build`.\n"
        "\n# after the block (`_other`)\n"
    )
    assert node_facts_listed(comment) == {"_key", "_value"}


def test_fact_owner_detectors():
    src = (
        "class Pair:\n"
        "    def __init__(self, left):\n"
        "        fields = self.__dict__\n        fields['_a'] = 1\n"
        "def f(t: 'PureTerm', d: Union[PureTerm, TermDist], u):\n"
        "    t.__dict__['_b'] = 1\n"
        "    if isinstance(d, TermDist):\n        d.__dict__['_c'] = 2\n"
        "    d.__dict__['_d'] = 3\n"
        "    out = TermDist(())\n    object.__setattr__(out, '_e', 4)\n"
        "    for s, c in d.entries:\n        s.__dict__['_f'] = 5\n"
        "    u.__dict__['_g'] = u.__dict__['name'] = 6\n"
        "    def g(b: Basis):\n        b.__dict__['_h'] = 7\n"
    )
    assert facts_written_by_owner(src) == {
        ("term", "_a"), ("term", "_b"), ("distribution", "_c"),
        ("term", "_d"), ("distribution", "_d"), ("distribution", "_e"),
        ("term", "_f"), ("?", "_g"), ("basis", "_h"),
    }
    comment = (
        "# Node keys.  By owner: term facts (`_a`,\n# `_b`); basis\n"
        "# facts (`_c`, on an `Ortho`); node facts (`_x`).\n"
        "\n# type facts (`_d`)\n"
    )
    assert facts_listed_by_owner(comment) == {
        ("term", "_a"), ("term", "_b"), ("basis", "_c")
    }


def test_node_keys_comment_lists_every_fact_by_owner():
    package = sorted((ROOT / "src" / "basislam").glob("*.py"))
    written = set().union(
        *(facts_written_by_owner(p.read_text(encoding="utf-8")) for p in package)
    )
    core = ROOT / "src" / "basislam" / "core.py"
    listed = facts_listed_by_owner(core.read_text(encoding="utf-8"))
    assert ("term", "_shape") in listed
    assert sorted(written - listed) == []  # written, not listed
    assert sorted(listed - written) == []  # listed, never written


def test_node_keys_comment_names_every_node_fact():
    package = sorted((ROOT / "src" / "basislam").glob("*.py"))
    written = set().union(
        *(node_facts_written(p.read_text(encoding="utf-8")) for p in package)
    )
    core = ROOT / "src" / "basislam" / "core.py"
    listed = node_facts_listed(core.read_text(encoding="utf-8"))
    assert "_value" in listed and "_shapes" in listed
    assert sorted(written - listed) == []  # written, not documented
    assert sorted(listed - written) == []  # documented, never written
