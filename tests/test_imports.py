"""Every name a kdntt module imports is used by that module, every
parameter a kdntt function takes is read by it, every name in
kdntt.__all__ exists, the modules' top-level imports form no cycle,
only memory_map reads a program's bank addresses and routing flags, and
only pipeline_sim's compile step reads a word width.

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


_BANK_FIELDS = {"addr_a", "addr_b", "read_swap", "write_swap", "tw_index"}


def _bank_access(source: str) -> list[str]:
    """Reads of a CycleEntry's address, flag or twiddle fields, and
    imports of a bank role, in one module's source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in _BANK_FIELDS:
            found.append(f".{node.attr} (line {node.lineno})")
        if isinstance(node, ast.ImportFrom):
            found += [f"{a.name} (line {node.lineno})" for a in node.names
                      if a.name in ("BANK_A", "BANK_B")]
    return found


def test_only_memory_map_touches_the_banks():
    # memory_map.run_stages is the one replay of a program on the banks;
    # a second reader of the flags would be a second hazard model
    assert _bank_access("from .m import BANK_A, x\nx.read_swap\n") == [
        "BANK_A (line 1)", ".read_swap (line 2)"]
    for path in sorted(Path(kdntt.__file__).parent.glob("*.py")):
        if path.name != "memory_map.py":
            found = _bank_access(path.read_text(encoding="utf-8"))
            assert not found, f"{path.name}: reads the banks {found}"


def test_only_compile_knows_the_word_width():
    # _compile lays each word's t slots out as operand positions; a word
    # width read anywhere else in pipeline_sim would be a second copy of
    # that layout, and the executors read positions only
    tree = ast.parse((Path(kdntt.__file__).parent / "pipeline_sim.py")
                     .read_text(encoding="utf-8"))
    funcs = {n.name: n for n in ast.walk(tree)
             if isinstance(n, ast.FunctionDef)}

    def width_reads(node):
        return {n.lineno for n in ast.walk(node)
                if isinstance(n, ast.Attribute) and n.attr == "t"}

    assert width_reads(funcs["_compile"])
    assert width_reads(tree) == width_reads(funcs["_compile"])
    for name in ("_execute", "_execute_columns", "run_batch"):
        args = funcs[name].args
        assert "t" not in [a.arg for a in (*args.posonlyargs, *args.args,
                                           *args.kwonlyargs)], name
