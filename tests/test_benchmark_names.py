"""The per-layer benchmark metrics name package functions; those must exist.

The traced benchmark run wraps each named function by attribute lookup, so
renaming or deleting one breaks it.  The derived solver metrics (iteration
count, cross-check time, error counts) name no function.  The embedding
functions it wraps are listed in perfbench/spec.py, not in BENCHMARK.json.
The benchmark also reads result fields, package names and exception classes,
so a rename of any of those fails here too, not first in a benchmark run.
"""

import ast
import dataclasses
import json
from pathlib import Path

import pytest

import conric
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


def spec_names(constant):
    """A tuple constant of perfbench/spec.py, read from its source."""
    tree = ast.parse((ROOT / "perfbench" / "spec.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == constant for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/spec.py defines no {constant}")


@pytest.mark.parametrize("name", spec_names("EMBEDDING_FUNCTIONS"))
def test_traced_embedding_function_exists(name):
    assert callable(getattr(embedding, name, None))


@pytest.mark.parametrize("name", spec_names("SOLVER_ERRORS"))
def test_counted_solver_error_is_a_package_exception(name):
    # the traced run counts a raised exception under its class name
    cls = getattr(conric, name, None)
    assert isinstance(cls, type) and issubclass(cls, conric.ConricError)


def perfbench_package_names():
    """Every conric.<name> that a perfbench module reads (classes, functions, modules), from its source."""
    names = set()
    for path in (ROOT / "perfbench").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "conric":
                names.add(node.attr)
    return sorted(names)


@pytest.mark.parametrize("name", perfbench_package_names())
def test_package_name_read_by_perfbench_exists(name):
    assert hasattr(conric, name)


@pytest.mark.parametrize(
    "result, field",
    # workloads.py checks a solve's solution and a report's verdict and exact criterion;
    # tracing.py summarises a solve by its iteration count
    [
        (conditions.ExistenceReport, "exact_invertible"),
        (conditions.ExistenceReport, "verdict"),
        (solver.SolveOutcome, "solution"),
        (solver.SolveOutcome, "iterations"),
    ],
)
def test_result_field_read_by_perfbench_exists(result, field):
    assert field in {f.name for f in dataclasses.fields(result)}
