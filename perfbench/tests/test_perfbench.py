"""Tests of the benchmark itself: generation, oracles, tracing, output shape.

Run with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import oracles, run, spec, tracing, workloads  # noqa: E402

import conric  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _results(wl, ops):
    out = []
    for op in ops:
        try:
            out.append(workloads.Result(op, 0.0, wl.execute(op)))
        except conric.ConricError as exc:
            out.append(workloads.Result(op, 0.0, None, exc))
    return out


def test_spec_file_is_rendered_from_spec_module():
    assert SPEC == spec.render()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(name, tmp_path):
    cls = workloads.WORKLOADS[name]

    def snapshot(seed, sub):
        wl = cls(seed, tmp_path / sub)
        insts = [wl.instance(r, j, n) for r in range(3) for j, n in enumerate(cls.sizes)]
        files = [
            [p.read_text() for k, p in sorted(i.files.items()) if k != "out_fmt"] for i in insts
        ]
        return [(i.kind, i.accepted, i.omega, i.a, i.q) for i in insts], files

    first, first_files = snapshot(7, "a")
    again, again_files = snapshot(7, "b")
    other, _ = snapshot(8, "c")
    assert first_files == again_files
    for x, y in zip(first, again):
        assert x[:3] == y[:3]
        assert np.array_equal(x[3], y[3])
        assert (x[4] is None and y[4] is None) or np.array_equal(x[4], y[4])
    assert not all(np.array_equal(x[3], y[3]) for x, y in zip(first, other))


def test_residual_oracle_rejects_perturbed_maximal_solution(tmp_path):
    wl = workloads.SolveWorkload(5, tmp_path)
    inst = wl.instance(2, 0, 4)
    assert inst.kind == "con_normal"
    x_plus = oracles.con_normal_closed_form(inst.a, "maximal")
    assert oracles.check_solution(x_plus, inst.a, inst.q_or_eye) > 12.0
    planted = workloads.Result(
        workloads.Op("solve_maximal", inst), 0.0, SimpleNamespace(solution=x_plus + 1e-6 * np.eye(4))
    )
    honest = _results(wl, [workloads.Op("solve_maximal", inst)])
    assert wl.check(honest)[0].cause is None
    assert wl.check([planted])[0].cause == "oracle"


def test_certify_oracle_rejects_flipped_verdict(tmp_path):
    wl = workloads.CertifyWorkload(5, tmp_path)
    inst = next(
        i for i in (wl.instance(r, 0, 4) for r in range(6)) if i.kind == "not_exists"
    )
    [honest] = _results(wl, [workloads.Op("check_existence", inst)])
    assert honest.value.verdict == "not_exists"
    flipped = workloads.Result(honest.op, 0.0, SimpleNamespace(verdict="exists", exact_invertible=None))
    checks = wl.check([honest, flipped])
    assert checks[0].cause is None and checks[0].digits > 10.0
    assert checks[1].cause == "oracle"


def _cli_checks(wl, inst, tamper=None):
    ops = wl.ops(inst, deep=True)
    results = _results(wl, ops)
    if tamper is not None:
        tamper(ops)
    return {op.name: c for op, c in zip(ops, wl.check(results))}


def test_bounds_oracle_rejects_upper_rung_below_x_plus(tmp_path):
    wl = workloads.CliBatchWorkload(5, tmp_path)
    inst = wl.instance(0, 0, 2)
    assert inst.q is None and inst.files["out_fmt"] == "json"
    assert all(c.cause is None for c in _cli_checks(wl, inst).values())

    def shift_r_k(ops):
        solve_doc = json.loads(ops[0].out.read_text())
        x_plus = workloads._matrix(solve_doc["outcome"]["x_plus"])
        bounds = next(op for op in ops if op.name == "bounds --depth 6")
        doc = json.loads(bounds.out.read_text())
        shifted = x_plus - 1e-3 * np.eye(2)
        doc["ladders"]["upper"]["matrices"][-1] = {"re": shifted.real.tolist(), "im": shifted.imag.tolist()}
        bounds.out.write_text(json.dumps(doc))

    checks = _cli_checks(wl, inst, shift_r_k)
    assert checks["bounds --depth 6"].cause == "oracle"
    assert checks["bounds --depth 48"].cause is None


def test_bounds_with_q_fails_as_the_known_defect(tmp_path):
    wl = workloads.CliBatchWorkload(5, tmp_path)
    inst = wl.instance(1, 0, 2)
    assert inst.q is not None
    checks = _cli_checks(wl, inst)
    assert {name: c.cause for name, c in checks.items()} == {
        "solve --minimal": None,
        "check": None,
        "trace": None,
        "bounds --depth 6": "bounds-ignores-q",
        "bounds --depth 48": "bounds-ignores-q",
    }


def test_failed_minimal_solve_fails_its_dependent_reports_as_the_known_defect(tmp_path):
    wl = workloads.CliBatchWorkload(5, tmp_path)
    ops = wl.ops(wl.instance(0, 0, 2))
    stderr = "error: dual-route residual 7.3e-09 exceeds tolerance 1.000e-09\n"
    results = [workloads.Result(ops[0], 0.0, (1, stderr))] + _results(wl, ops[1:])
    causes = [c.cause for c in wl.check(results)]
    assert [op.name for op in ops] == ["solve --minimal", "check", "trace", "bounds --depth 6"]
    assert causes == ["minimal-dual-route", None, "minimal-dual-route", "minimal-dual-route"]
    other = [workloads.Result(ops[0], 0.0, (1, "error: something else\n"))]
    assert wl.check(other)[0].cause == "exit-code"


def test_text_report_parses_like_json(tmp_path):
    wl = workloads.CliBatchWorkload(5, tmp_path)
    path = str(wl.instance(0, 0, 2).files["a"])
    for fmt in ("json", "text"):
        conric.cli.main(["solve", "--minimal", path, "--no-meta", "--format", fmt, "--out", str(tmp_path / fmt)])
    from_text = workloads.parse_text_report((tmp_path / "text").read_text())
    from_json = json.loads((tmp_path / "json").read_text())
    assert from_text["outcome"] == from_json["outcome"]
    assert from_text["existence"]["verdict"] == from_json["existence"]["verdict"]


def test_tracer_patches_every_lookup_name_and_restores_them():
    original = conric.kernel.mat_inverse
    tracer = tracing.Tracer()
    with tracer.installed():
        assert conric.solver.mat_inverse is conric.kernel.mat_inverse is conric.mat_inverse
        assert conric.solver.mat_inverse is not original
        conric.solve_maximal(conric.ProblemInstance(0.3 * np.eye(3)))
    assert conric.solver.mat_inverse is original and conric.kernel.mat_inverse is original
    metrics = tracer.metrics(ops=1)
    assert metrics["kernel.mat_inverse.calls"] > 0
    assert metrics["solver.iterations"] > 0
    assert 0.0 < metrics["solver.cross_check_s"] < metrics["solver.solve_maximal.s"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_reports_exactly_the_spec_metrics(name):
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result, _, _ = run.run_workload(name, 3, 0.01, trace, tiny=True, setup_repeats=1, min_ops=1)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if name != "cli-batch":
        assert values["bounds.build_ladder.calls"] == 0
    if name in ("solve", "near-critical"):
        assert values["kernel.numerical_radius.calls"] == 0


def test_compare_prints_old_new_and_ratio(tmp_path):
    def record(value):
        metrics = {"latency_ms_p50": {"value": value, "unit": "ms"}}
        return json.dumps({"workload": "solve", "result": {"metrics": metrics}}) + "\n"

    (tmp_path / "old").write_text(record(10.0) + record(12.0) + record(11.0))
    (tmp_path / "new").write_text(record(5.5))
    lines = run.compare(str(tmp_path / "old"), str(tmp_path / "new"))
    row = next(line for line in lines if "latency_ms_p50" in line).split()
    assert row[:5] == ["solve", "latency_ms_p50", "11", "5.5", "0.500"]
