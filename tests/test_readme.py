"""README's Library example runs as written and its command lines parse,
so a signature change or a removed flag that the docs still show fails
the suite."""

import re
import shlex
from pathlib import Path

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
