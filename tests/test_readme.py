"""The README's library example and CLI examples run as written against the
current API."""

import re
import shlex
from pathlib import Path

import pytest

from plgd.cli import EXIT_OK, main

README = Path(__file__).resolve().parents[1] / "README.md"


def code_block(heading: str, lang: str = "python") -> str:
    """The first ``lang`` code block after the line ``heading``."""
    text = README.read_text()
    start = text.index(heading + "\n")
    match = re.search(rf"```{lang}\n(.*?)```", text[start:], re.S)
    assert match is not None, f"no {lang} block after {heading!r}"
    return match.group(1)


def test_library_quick_tour_runs(capsys):
    code = compile(code_block("## Library quick tour"), f"{README}:quick tour", "exec")
    exec(code, {"__name__": "readme_quick_tour"})
    assert len(capsys.readouterr().out.splitlines()) == 2  # the block's two prints


@pytest.mark.parametrize("command", ["run", "check"])
def test_cli_example_runs_on_the_minimal_config(tmp_path, monkeypatch, command):
    (line,) = [l for l in code_block("## CLI", "sh").splitlines()
               if l.startswith(f"plgd {command} ")]
    argv = shlex.split(line, comments=True)
    (config_name,) = argv[2:]
    (tmp_path / config_name).write_text(code_block("A minimal config:", "json"))
    monkeypatch.chdir(tmp_path)  # the config writes into the relative directory "out"
    assert main(argv[1:]) == EXIT_OK
    assert (tmp_path / "out" / "report.json").is_file()
