"""Every name a kdntt module imports is used by that module, and every
name in kdntt.__all__ exists.

No linter ships with the project, so this stdlib-ast check stands in
for one.  __init__ is skipped: its imports are the package's re-exports.
"""

import ast
from pathlib import Path

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
