"""Smoke runs of the experiment scripts, which use the public API."""

import runpy
import subprocess
import sys
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


def test_pool_digest_repeats():
    # the bitwise gate between two checkouts is only as good as its repeatability within one
    command = [sys.executable, str(SCRIPTS / "pool_digest.py"), "201", "--tiny"]
    runs = [subprocess.run(command, capture_output=True, text=True, check=True) for _ in range(2)]
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stderr == ""
    lines = [line.split() for line in runs[0].stdout.splitlines()]
    assert [line[:2] for line in lines] == [["201", name] for name in ("solve", "near-critical", "certify", "cli-batch")]
    assert all(int(count) > 0 and len(digest) == 64 for *_, count, digest in lines)
