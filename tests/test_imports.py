"""Every name a kdntt module imports is used by that module, every
name in kdntt.__all__ exists, and the modules' top-level imports form
no cycle.

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
