"""README's Library example runs as written, its command lines parse and
its backticked names resolve, so a signature change, a removed flag or a
deleted name that the docs still show fails the suite."""

import argparse
import builtins
import importlib
import inspect
import pkgutil
import re
import shlex
from pathlib import Path

import kdntt
from kdntt.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert "busy_cycles=576\n" in capsys.readouterr().out


def test_readme_command_lines_parse():
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    lines = [ln for b in blocks for ln in b.splitlines()
             if ln.startswith("kdntt ")]
    assert len(lines) >= 8
    for ln in lines:
        build_parser().parse_args(shlex.split(ln)[1:])


def _kdntt_names() -> set[str]:
    """kdntt's modules and their attributes, the fields, attributes and
    parameters of its classes and functions, the CLI's subcommands and
    the builtins."""
    names = {"kdntt", *dir(builtins)}
    for action in build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            names |= set(action.choices)
    for info in pkgutil.iter_modules(kdntt.__path__):
        mod = importlib.import_module(f"kdntt.{info.name}")
        names |= {info.name, *vars(mod)}
        for obj in vars(mod).values():
            if not getattr(obj, "__module__", "").startswith("kdntt"):
                continue
            members = [obj]
            if inspect.isclass(obj):
                names |= {*vars(obj), *getattr(obj, "__annotations__", {})}
                members += vars(obj).values()
            for f in members:
                f = getattr(f, "__func__", f)  # classmethod, staticmethod
                if inspect.isfunction(inspect.unwrap(f)):
                    names |= set(inspect.signature(f).parameters)
    return names


def test_readme_backticked_names_resolve():
    idents = set(re.findall(r"`([A-Za-z_]\w+)`", README.read_text()))
    assert len(idents) >= 40
    assert sorted(idents - _kdntt_names()) == []
