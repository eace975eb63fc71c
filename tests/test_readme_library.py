"""README's Library snippet runs as shown and prints what it promises,
so the public names it uses stay importable and their results stay
exact."""
import re
from pathlib import Path

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
