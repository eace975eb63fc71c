"""README's Library snippet runs as shown and prints what it promises,
so the public names it uses stay importable and their results stay
exact; its command lines run as shown."""
import re
import shlex
from pathlib import Path

import pytest

from origami_census.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def library_snippet() -> str:
    section = README.read_text().split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_snippet_output(capsys):
    exec(compile(library_snippet(), str(README), "exec"), {})
    assert capsys.readouterr().out == (
        "3 28/3 True 0\n"
        "15 28/3 True 0\n"
        "12 9 False 1\n"
        "10 9 False 1\n"
        "(2) 5/4 1\n"
    )


def command_lines() -> list[str]:
    return [
        line for line in README.read_text().splitlines()
        if line.startswith("origami-census ")
    ]


@pytest.mark.parametrize("line", command_lines())
def test_command_line_runs(line, tmp_path, capsys):
    argv = shlex.split(line, comments=True)[1:]
    assert main([*argv, "--cache-dir", str(tmp_path)]) == 0, capsys.readouterr().err
