"""The per-layer benchmark metrics name package functions; those must exist.

The traced benchmark run wraps each named function by attribute lookup, so
renaming or deleting one breaks it.  The derived solver metrics (iteration
count, cross-check time, error counts) name no function.  The embedding
functions it wraps are listed in perfbench/spec.py, not in BENCHMARK.json.
"""

import ast
import json
from pathlib import Path

import pytest

from conric import bounds, cli, conditions, embedding, kernel, solver

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
DERIVED = {"solver.iterations", "solver.cross_check_s"}


def traced_names():
    names = []
    for metric in json.loads(SPEC.read_text())["per_layer"]:
        layer, _, rest = metric["name"].partition(".")
        if metric["name"] in DERIVED or rest.startswith("errors."):
            continue
        if layer == "kernel" or (layer == "solver" and rest.endswith(".s")):
            names.append((layer, rest.split(".")[0]))
    return sorted(set(names))


def test_spec_names_kernel_and_solver_functions():
    layers = {layer for layer, _ in traced_names()}
    assert layers == {"kernel", "solver"}


@pytest.mark.parametrize(
    "module, name",
    [({"kernel": kernel, "solver": solver}[layer], name) for layer, name in traced_names()]
    + [
        (conditions, "check_existence"),
        (bounds, "build_ladder"),
        (bounds, "sandwich_report"),
        (cli, "main"),
    ],
)
def test_traced_function_exists(module, name):
    assert callable(getattr(module, name, None))


def embedding_names():
    """EMBEDDING_FUNCTIONS of perfbench/spec.py, read from its source."""
    tree = ast.parse((ROOT / "perfbench" / "spec.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "EMBEDDING_FUNCTIONS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spec.py defines no EMBEDDING_FUNCTIONS")


@pytest.mark.parametrize("name", embedding_names())
def test_traced_embedding_function_exists(name):
    assert callable(getattr(embedding, name, None))
