"""The README's Quick start and CLI examples run as written, on the API the package has now."""

import re
import shlex
from pathlib import Path

import pytest

from conric import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> str:
    """The python block of the README section ``## Quick start (API)``."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Quick start (API)\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def cli_examples() -> list[str]:
    """The ``conric ...`` lines of the sh block after ``Example:`` in section ``## CLI``."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"Example:\n\n```sh\n(.*?)```", section, re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("conric ")]


def test_quick_start_runs(capsys):
    names: dict = {}
    exec(compile(quick_start(), f"{README.name} (Quick start)", "exec"), names)
    assert capsys.readouterr().out
    assert names["report"].verdict == "exists"
    out = names["out"]
    assert out.residual <= 1e-14
    assert 0.6140 <= out.rate_certificate < 0.6141 and out.linear_rate_guaranteed
    assert names["pinch"].consistent and names["check"].consistent


def test_cli_examples_are_found():
    assert len(cli_examples()) == 3


@pytest.mark.parametrize("line", cli_examples(), ids=lambda line: line.split()[1])
def test_cli_example_runs(line, monkeypatch, capsys):
    # the example paths are relative to the repository root
    monkeypatch.chdir(README.parent)
    argv = shlex.split(line, comments=True)
    assert cli.main(argv[1:]) == 0
    out, err = capsys.readouterr()
    assert out and not err
