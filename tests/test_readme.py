"""The README's library example runs as written against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_block(heading: str) -> str:
    """The first python code block after the line ``heading``."""
    text = README.read_text()
    start = text.index(heading + "\n")
    match = re.search(r"```python\n(.*?)```", text[start:], re.S)
    assert match is not None, f"no python block after {heading!r}"
    return match.group(1)


def test_library_quick_tour_runs(capsys):
    code = compile(python_block("## Library quick tour"), f"{README}:quick tour", "exec")
    exec(code, {"__name__": "readme_quick_tour"})
    assert len(capsys.readouterr().out.splitlines()) == 2  # the block's two prints
