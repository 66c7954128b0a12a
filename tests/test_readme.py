"""The README's Quick start runs as written, on the API the package has now."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> str:
    """The python block of the README section ``## Quick start (API)``."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Quick start (API)\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_runs(capsys):
    names: dict = {}
    exec(compile(quick_start(), f"{README.name} (Quick start)", "exec"), names)
    assert capsys.readouterr().out
    assert names["report"].verdict == "exists"
    out = names["out"]
    assert out.residual <= 1e-14
    assert 0.6140 <= out.rate_certificate < 0.6141 and out.linear_rate_guaranteed
    assert names["pinch"].consistent and names["check"].consistent
