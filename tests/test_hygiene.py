"""Every name a module of the package imports is used in that module,
and every parameter of every function is read in its body.

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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
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
