"""Smoke runs of the experiment scripts, which use the public API."""

import runpy
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "script, line",
    [
        ("convergence_demo.py", "== demo-2x2: converged in 14 iterations, residual "),
        ("bounds_demo.py", "== scalar-0.45"),
    ],
    ids=["convergence_demo", "bounds_demo"],
)
def test_script_runs(capsys, script, line):
    runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert any(printed.startswith(line) for printed in lines)
