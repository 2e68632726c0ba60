"""Every name a kdntt module imports is used by that module, every
parameter a kdntt function takes is read by it, every name in
kdntt.__all__ exists, and the modules' top-level imports form no cycle.

No linter ships with the project, so this stdlib-ast check stands in
for one.  __init__ is skipped: its imports are the package's re-exports.
"""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

import kdntt


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def test_unused_import_is_caught():
    assert _unused_imports("import os\nfrom a import b, c as d\nd()\n") == [
        "os (line 1)", "b (line 2)"]


def _unread_parameters(source: str) -> list[str]:
    """Parameters of each function and lambda that no expression in its
    body (nested functions included) reads; self, cls and _-prefixed
    names are exempt."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args,
                                  *args.kwonlyargs, args.vararg, args.kwarg)
                  if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        unread += [f"{name}({param}) (line {node.lineno})" for param in params
                   if param not in read and param not in ("self", "cls")
                   and not param.startswith("_")]
    return unread


def test_unread_parameter_is_caught():
    assert _unread_parameters(
        "def f(self, a, b, _c, *d, e=1, **g):\n"
        "    def h(x):\n"
        "        return a + x\n"
        "    b = lambda y, z: z\n"
        "    return e\n") == [
        "f(b) (line 1)", "f(d) (line 1)", "f(g) (line 1)",
        "<lambda>(y) (line 4)"]


def test_no_unread_parameters_in_package():
    for path in sorted(Path(kdntt.__file__).parent.glob("*.py")):
        unread = _unread_parameters(path.read_text(encoding="utf-8"))
        assert not unread, f"{path.name}: unread parameters {unread}"


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition goes breaks import *
    missing = [name for name in kdntt.__all__ if not hasattr(kdntt, name)]
    assert not missing, f"kdntt.__all__ names undefined {missing}"


def test_no_unused_imports_in_package():
    for path in sorted(Path(kdntt.__file__).parent.glob("*.py")):
        if path.name != "__init__.py":
            unused = _unused_imports(path.read_text(encoding="utf-8"))
            assert not unused, f"{path.name}: unused imports {unused}"


def _top_level_imports(source: str) -> set[str]:
    """The sibling modules named by ``from .x import`` statements in a
    module's body; imports inside functions run late and may go back."""
    return {node.module for node in ast.parse(source).body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            and node.module}


def test_nested_imports_are_not_top_level():
    assert _top_level_imports(
        "from .a import x\ndef f():\n    from .b import y\n") == {"a"}


def test_module_imports_form_a_dag():
    # bfu calls pipeline_sim, which imports bfu: that call imports inside
    # the function, since a module-level cycle works only while the
    # import order happens to suit it
    graph = {path.stem: _top_level_imports(path.read_text(encoding="utf-8"))
             for path in Path(kdntt.__file__).parent.glob("*.py")
             if path.name != "__init__.py"}
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as e:
        pytest.fail(f"import cycle {' -> '.join(e.args[1])}")
