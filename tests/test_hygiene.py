"""Every name a module of the package or a test file imports is used in
that file, every parameter of every function is read in its body, every
module-level private function is referred to somewhere in the package,
and every module-level public function or class is referred to by
package code other than ``__init__.py``, or is a library entry point.

No linter ships with the project, so this walks each module's syntax
tree instead.  ``__init__.py`` is left out of the import check: it
imports to re-export.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "demod"
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
TESTS = sorted(PACKAGE.parent.parent.joinpath("tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_sees_unused_import():
    assert unused_imports("import os\nfrom re import sub, match\nsub\n") \
        == ["line 2: match", "line 1: os"]


def unread_parameters(source: str) -> list[str]:
    """Parameters, other than ``self``, that no statement of their
    function's body reads (nested functions count as the body)."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out.extend(f"line {node.lineno}: {node.name}({p.arg})" for p in params
                   if p is not None and p.arg != "self" and p.arg not in read)
    return out


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text()) == []


def test_checker_sees_unread_parameter():
    source = ("class C:\n"
              "    def m(self, a, b=1, *rest, c, **kw):\n"
              "        b = a\n"
              "        return [kw for _ in rest]\n"
              "def f(x, y):\n"
              "    def g():\n"
              "        return y\n"
              "    return g\n")
    assert sorted(unread_parameters(source)) == [
        "line 2: m(b)", "line 2: m(c)", "line 5: f(x)"]


def unreferenced(sources: dict[str, str], picks) -> list[str]:
    """Module-level definitions of ``{module: source}`` that ``picks``
    selects and that no code refers to, except their own body (a name,
    an attribute or an import)."""
    refs: dict[str, set] = {}   # name -> {(module, top-level owner)}
    defs = []
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            owner = getattr(stmt, "name", None)
            if picks(stmt):
                defs.append((owner, module))
            for n in ast.walk(stmt):
                if isinstance(n, ast.Name):
                    names = [n.id]
                elif isinstance(n, ast.Attribute):
                    names = [n.attr]
                elif isinstance(n, ast.ImportFrom):
                    names = [a.name for a in n.names]
                else:
                    continue
                for name in names:
                    refs.setdefault(name, set()).add((module, owner))
    return [f"{module}: {name}" for name, module in defs
            if refs.get(name, set()) - {(module, name)} == set()]


def orphaned_helpers(sources: dict[str, str]) -> list[str]:
    """Module-level private functions that no code refers to."""
    return unreferenced(sources, lambda stmt: (
        isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        and stmt.name.startswith("_") and not stmt.name.startswith("__")))


# public names that no other module reaches, kept as library calls
ENTRY_POINTS = {"normalize_proof"}


def unreached_public_names(sources: dict[str, str],
                           allowed=ENTRY_POINTS) -> list[str]:
    """Module-level public functions and classes that no code but
    ``__init__.py``'s re-exports refers to, other than those ``allowed``
    names."""
    modules = {m: s for m, s in sources.items() if m != "__init__.py"}
    return unreferenced(modules, lambda stmt: (
        isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                          ast.ClassDef))
        and not stmt.name.startswith("_") and stmt.name not in allowed))


def test_every_private_function_is_used():
    sources = {p.name: p.read_text() for p in SOURCES}
    assert orphaned_helpers(sources) == []


def test_checker_sees_orphaned_helper():
    sources = {
        "a.py": ("def _orphan():\n    pass\n"
                 "def _self_only(n):\n    return _self_only(n - 1)\n"
                 "def _called():\n    pass\n"
                 "def _imported():\n    pass\n"
                 "def _by_attribute():\n    pass\n"
                 "def __dunder__():\n    pass\n"
                 "def public():\n    return _called()\n"),
        "b.py": ("from .a import _imported\n"
                 "import a\n"
                 "X = a._by_attribute\n"),
    }
    assert orphaned_helpers(sources) == ["a.py: _orphan", "a.py: _self_only"]


def test_every_public_name_is_reached():
    sources = {p.name: p.read_text() for p in SOURCES}
    assert unreached_public_names(sources) == []


def test_checker_sees_unreached_public_name():
    sources = {
        "__init__.py": "from .a import exported, Called\n",
        "a.py": ("def exported():\n    pass\n"
                 "def recursive(n):\n    return recursive(n - 1)\n"
                 "class Called:\n    pass\n"
                 "def entry():\n    return Called()\n"
                 "def imported():\n    pass\n"
                 "def _private():\n    pass\n"
                 "VALUE = 1\n"),
        "b.py": "from .a import imported\n",
    }
    assert unreached_public_names(sources, {"entry"}) \
        == ["a.py: exported", "a.py: recursive"]
    assert unreached_public_names(sources, set()) \
        == ["a.py: exported", "a.py: recursive", "a.py: entry"]


def self_calling_closures(source: str) -> list[str]:
    """Functions defined inside another function that call themselves by
    name.  Such a function holds itself through a closure cell, so every
    call of the enclosing function leaves a reference cycle for the
    garbage collector; a module-level helper does the same work without
    one."""
    found = []
    todo = [(ast.parse(source), False)]
    while todo:
        node, nested = todo.pop()
        for child in ast.iter_child_nodes(node):
            is_fn = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            if is_fn and nested and any(
                    isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                    and n.func.id == child.name for n in ast.walk(child)):
                found.append((child.lineno, child.name))
            todo.append((child, nested or is_fn
                         or isinstance(child, ast.Lambda)))
    return [f"line {line}: {name}" for line, name in sorted(found)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_self_calling_closures(path):
    assert self_calling_closures(path.read_text()) == []


def test_checker_sees_self_calling_closure():
    source = ("def top(n):\n"
              "    return top(n - 1)\n"
              "def outer(x):\n"
              "    def walk(y):\n"
              "        return [walk(c) for c in y]\n"
              "    def leaf(y):\n"
              "        return top(y)\n"
              "    class Local:\n"
              "        def method(self):\n"
              "            def deep(z):\n"
              "                return deep(z)\n"
              "            return self.method()\n"
              "    return walk(x), leaf(x), Local\n")
    assert self_calling_closures(source) == ["line 4: walk",
                                             "line 10: deep"]
