"""Every imported name is used: the package modules (except the
re-exporting ``__init__``), the scripts and the tests.  Every private
module-level name of the package is read somewhere in the package, and
every parameter of the package and the scripts is read by its
function."""

import ast
import pathlib

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
    """The only `global` statement of the package sits in the settings
    context manager, so no other code rebinds a module-level value."""
    found = []
    for path in sorted((ROOT / "src" / "basislam").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
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
    assert found == [("core.py", "local_settings", ["_settings"])]
