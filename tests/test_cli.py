import ast
import copy
import dataclasses
import io
import json
import math
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conric import cli
from conric.bounds import LadderBreakdown, build_ladder, sandwich_report
from conric.cli import _emit, main
from conric.conditions import cross_validate
from conric.embedding import lozenge
from conric.kernel import NotPositiveDefiniteError, Tolerances, numerical_radius
from conric.solver import ProblemInstance, SolveFailure, residual, solve_maximal
from helpers import (
    EX1_A,
    EX1_X_PLUS,
    ILL_Q,
    ILL_Q_A,
    ONE_SIDED_BREAKDOWN,
    SCALED_Q,
    SCALED_Q_A,
    singular_tilted_null,
)

README = Path(__file__).resolve().parent.parent / "README.md"


def write_json_instance(path, a, q=None):
    doc = {
        "n": a.shape[0],
        "re": a.real.tolist(),
        "im": a.imag.tolist(),
    }
    if q is not None:
        doc["q_re"] = q.real.tolist()
        doc["q_im"] = q.imag.tolist()
    path.write_text(json.dumps(doc))
    return path


def write_text_instance(path, a):
    lines = [str(a.shape[0])]
    for row in a:
        lines.append(" ".join(f"{complex(z).real!r},{complex(z).imag!r}" for z in row))
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture
def example_file(tmp_path):
    return write_json_instance(tmp_path / "example.json", EX1_A)


class TestSolveCommand:
    def test_example_solves(self, example_file, capsys):
        code = main(["solve", str(example_file), "--format", "json", "--no-meta"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["exit_classification"] == "success"
        x = np.array(report["outcome"]["x_plus"]["re"]) + 1j * np.array(
            report["outcome"]["x_plus"]["im"]
        )
        assert np.abs(x - EX1_X_PLUS).max() <= 1e-8
        assert report["outcome"]["residual"] <= 1e-9
        assert report["outcome"]["linear_rate_guaranteed"] is True
        assert report["existence"]["verdict"] == "exists"

    def test_zero_matrix(self, tmp_path, capsys):
        path = write_json_instance(tmp_path / "zero.json", np.zeros((2, 2)))
        code = main(["solve", str(path), "--no-meta"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        x = np.array(report["outcome"]["x_plus"]["re"])
        assert np.allclose(x, np.eye(2), atol=1e-12)

    def test_nonexistent_instance_exits_two(self, tmp_path, capsys):
        path = write_json_instance(tmp_path / "big.json", 0.8 * np.eye(2))
        code = main(["solve", str(path), "--no-meta"])
        assert code == 2
        report = json.loads(capsys.readouterr().out)
        assert report["exit_classification"] == "no-solution-evidence"
        assert "rho_quarter" in report["failed_conditions"]

    def test_boundary_hits_iteration_cap(self, tmp_path, capsys):
        path = write_json_instance(tmp_path / "half.json", 0.5 * np.eye(2))
        code = main(["solve", str(path), "--max-iter", "500", "--no-meta"])
        assert code == 3
        report = json.loads(capsys.readouterr().out)
        assert report["exit_classification"] == "max-iterations"

    def test_minimal_flag(self, example_file, capsys):
        code = main(["solve", str(example_file), "--minimal", "--no-meta"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        x_minus = np.array(report["outcome"]["x_minus"]["re"]) + 1j * np.array(
            report["outcome"]["x_minus"]["im"]
        )
        assert residual(x_minus, ProblemInstance(EX1_A)) <= 1e-9

    def test_minimal_flag_singular_notes_skip(self, tmp_path, capsys):
        path = write_json_instance(tmp_path / "sing.json", np.diag([0.3, 0.0]))
        code = main(["solve", str(path), "--minimal", "--no-meta"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["outcome"]["x_minus"] is None
        assert report["outcome"]["x_minus_note"].startswith("minimal solution is singular to the pivot floor")

    @pytest.mark.parametrize("command, key", [(["solve", "--minimal"], "x_minus"), (["bounds"], "sandwich")])
    def test_tilted_singular_coefficient_notes_the_minimal_solution(self, tmp_path, capsys, command, key):
        # the last Cholesky pivot of this draw's unit X- clears the floor; the QR factor of Z refuses it
        path = write_json_instance(tmp_path / "tilted.json", singular_tilted_null(np.random.default_rng(1)))
        assert main([*command, str(path), "--no-meta"]) == 0
        report = json.loads(capsys.readouterr().out)
        section = report["outcome"] if key == "x_minus" else report
        assert section[key] is None
        assert section[f"{key}_note"].startswith("minimal solution is singular to the pivot floor")

    def test_minimal_below_the_pivot_floor_notes_skip(self, tmp_path, capsys):
        # X- = diag(0.1, 9e-16) exists but is singular to the pivot floor
        path = write_json_instance(tmp_path / "tiny.json", np.diag([0.3, 3e-8]))
        assert main(["solve", str(path), "--minimal", "--no-meta"]) == 0
        captured = capsys.readouterr()
        outcome = json.loads(captured.out)["outcome"]
        assert outcome["x_plus"] is not None and outcome["x_minus"] is None
        assert outcome["x_minus_note"] == (
            "minimal solution is singular to the pivot floor (pivot margin 1.800e-14)"
        )
        assert captured.err == ""

    def test_round_trip_residual(self, example_file, tmp_path):
        out_path = tmp_path / "report.json"
        code = main(["solve", str(example_file), "--no-meta", "--out", str(out_path)])
        assert code == 0
        report = json.loads(out_path.read_text())
        x = np.array(report["outcome"]["x_plus"]["re"]) + 1j * np.array(
            report["outcome"]["x_plus"]["im"]
        )
        assert residual(x, ProblemInstance(EX1_A)) <= 1e-9

    def test_deterministic_output(self, example_file, capsys):
        # the depth-48 ladders of the example repeat after 17 distinct rungs, and their reuse relies on
        # LAPACK giving the same bytes for the same input bytes
        for command in (
            ["solve"],
            ["bounds", "--depth", "48", "--format", "json"],
            ["bounds", "--depth", "48", "--format", "text"],
        ):
            main([command[0], str(example_file), *command[1:], "--no-meta"])
            first = capsys.readouterr().out
            main([command[0], str(example_file), *command[1:], "--no-meta"])
            second = capsys.readouterr().out
            assert first == second

    @pytest.mark.parametrize("a", [np.array([[-0.4j]]), EX1_A], ids=["n1", "n2"])
    def test_trace_key_is_step_change_pairs(self, tmp_path, capsys, a):
        path = write_json_instance(tmp_path / "a.json", a)
        assert main(["solve", str(path), "--format", "json", "--no-meta"]) == 0
        trace = json.loads(capsys.readouterr().out)["trace"]
        expected = solve_maximal(ProblemInstance(a)).trace
        assert trace == [[k + 1, v] for k, v in enumerate(expected)]
        assert all(type(k) is int and type(v) is float for k, v in trace)

    def test_meta_included_by_default(self, example_file, capsys):
        main(["solve", str(example_file)])
        report = json.loads(capsys.readouterr().out)
        assert "generated_at" in report["meta"]

    def test_text_format(self, example_file, capsys):
        code = main(["solve", str(example_file), "--format", "text", "--no-meta"])
        assert code == 0
        out = capsys.readouterr().out
        assert 'exit_classification = "success"' in out

    def test_separate_q_file(self, tmp_path, capsys):
        a_path = write_json_instance(tmp_path / "a.json", EX1_A / 2.0)
        q_path = write_json_instance(tmp_path / "q.json", 2.0 * np.eye(2))
        code = main(["solve", str(a_path), "--q", str(q_path), "--no-meta"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        x = np.array(report["outcome"]["x_plus"]["re"]) + 1j * np.array(
            report["outcome"]["x_plus"]["im"]
        )
        p = ProblemInstance(EX1_A / 2.0, 2.0 * np.eye(2))
        assert residual(x, p) <= 1e-9

    def test_embedded_q_fields(self, tmp_path, capsys):
        path = write_json_instance(tmp_path / "withq.json", EX1_A / 2.0, q=3.0 * np.eye(2))
        code = main(["solve", str(path), "--no-meta"])
        assert code == 0


class TestInputHandling:
    def test_text_input_format(self, tmp_path, capsys):
        path = write_text_instance(tmp_path / "example.txt", EX1_A)
        code = main(["solve", str(path), "--no-meta"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        x = np.array(report["outcome"]["x_plus"]["re"]) + 1j * np.array(
            report["outcome"]["x_plus"]["im"]
        )
        assert np.abs(x - EX1_X_PLUS).max() <= 1e-8

    def test_missing_file(self, capsys):
        assert main(["solve", "/nonexistent/path.json"]) == 1

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["solve", str(path)]) == 1

    def test_wrong_shape(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "re": [[1.0]], "im": [[0.0]]}))
        assert main(["solve", str(path)]) == 1

    def test_non_finite_entries(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 1, "re": [[1e400]], "im": [[0.0]]}))
        assert main(["solve", str(path)]) == 1

    def test_non_hermitian_q(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        doc = {
            "n": 2,
            "re": [[0.1, 0.0], [0.0, 0.1]],
            "im": [[0.0, 0.0], [0.0, 0.0]],
            "q_re": [[1.0, 0.5], [0.0, 1.0]],
            "q_im": [[0.0, 0.0], [0.0, 0.0]],
        }
        path.write_text(json.dumps(doc))
        assert main(["solve", str(path)]) == 1
        assert "deviates from Hermitian" in capsys.readouterr().err

    def test_tol_flag_overrides_residual(self, example_file, capsys):
        code = main(["solve", str(example_file), "--tol", "1e-6", "--no-meta"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["tolerances"]["residual_tol"] == 1e-6
        assert report["outcome"]["residual"] <= 1e-6

    @pytest.mark.parametrize("value", ["inf", "nan", "0"])
    def test_a_tol_that_is_not_finite_and_positive_is_an_input_error(self, example_file, capsys, value):
        # an infinite residual tolerance would accept any matrix as a solution
        assert main(["check", str(example_file), "--tol", value, "--no-meta"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "input error: residual_tol must be finite and strictly positive\n"


class TestCheckCommand:
    def test_example_report(self, example_file, capsys):
        code = main(["check", str(example_file), "--no-meta"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["existence"]["verdict"] == "exists"
        # the norm bound is silent here, the exact invertible test decides
        assert report["existence"]["sufficient_norm_half"]["margin"] < 0.0
        assert report["existence"]["exact_invertible"]["holds"] is True

    def test_tolerances_block_matches_dataclass_and_readme(self, example_file, capsys):
        assert main(["check", str(example_file), "--no-meta"]) == 0
        keys = set(json.loads(capsys.readouterr().out)["tolerances"])
        assert keys == {f.name for f in dataclasses.fields(Tolerances)}
        # the README report-schema line, with its indented continuation lines
        lines = README.read_text().splitlines()
        start = next(i for i, line in enumerate(lines) if line.startswith("tolerances "))
        listed = lines[start].split(None, 1)[1]
        for line in lines[start + 1 :]:
            if not line.startswith(" "):
                break
            listed += "," + line
        assert {name.strip() for name in listed.split(",") if name.strip()} == keys

    def test_exit_code_table_matches_readme(self):
        # README's table: every report classification with its code, and 1 for input errors
        lines = README.read_text().splitlines()
        start = lines.index("| code | meaning |") + 2
        listed = {}
        for line in lines[start:]:
            if not line.startswith("|"):
                break
            code, meaning = (cell.strip() for cell in line.strip("|").split("|", 1))
            listed[int(code)] = meaning
        expected = {code: name for name, code in cli.EXIT_CODES.items()}
        expected[cli.EXIT_INPUT] = "input error"
        assert listed.keys() == expected.keys()
        for code, name in expected.items():
            assert listed[code].split(" (")[0] == name

    @pytest.mark.parametrize("command, code", [("check", 0), ("solve", 2)])
    def test_a_huge_finite_coefficient_gets_a_report(self, tmp_path, capsys, command, code):
        # 2e154 squared overflows; norm_lt_one refuses it, and no warning or error reaches stderr
        path = write_json_instance(tmp_path / "huge.json", np.array([[2e154]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, str(path), "--no-meta"]) == code
        out, err = capsys.readouterr()
        assert err == ""
        existence = json.loads(out)["existence"]
        assert existence["verdict"] == "not_exists"
        norm_lt_one = existence["necessary"][1]
        assert norm_lt_one["name"] == "norm_lt_one" and norm_lt_one["holds"] is False
        assert norm_lt_one["margin"] == pytest.approx(-2e154, rel=1e-12)


class TestBoundsCommand:
    def test_example_depth_three(self, example_file, capsys):
        code = main(["bounds", str(example_file), "--depth", "3", "--no-meta"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ladders"]["lower"]["depth"] == 3
        assert report["ladders"]["upper"]["depth"] == 3
        assert report["sandwich"]["lower_gap"] > 0.0
        assert report["sandwich"]["upper_gap"] > 0.0

    def test_breakdown_exits_two(self, tmp_path, capsys):
        path = write_json_instance(tmp_path / "big.json", 0.8 * np.eye(2))
        assert main(["bounds", str(path), "--no-meta"]) == 2

    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_either_ladder_breakdown_exits_two_without_ladders(self, tmp_path, capsys, side):
        # the named side breaks at rung 2 while the other survives, truncated
        a = ONE_SIDED_BREAKDOWN[side]
        p = ProblemInstance(a)
        with pytest.raises(LadderBreakdown) as info:
            build_ladder(p, side, 6)
        assert info.value.side == side
        assert build_ladder(p, "upper" if side == "lower" else "lower", 6).truncated_at == 2
        path = write_json_instance(tmp_path / "edge.json", a)
        assert main(["bounds", str(path), "--depth", "6", "--no-meta"]) == 2
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert "ladders" not in report and "sandwich" not in report
        assert report["exit_classification"] == "no-solution-evidence"
        assert report["error"] == str(info.value)
        assert report["error"].startswith(f"{side} ladder iterate 1 is not positive definite")
        assert captured.err == ""

    def test_no_solution_past_the_ladders_exits_two(self, tmp_path, capsys):
        # both depth-6 ladders stay positive definite; the sandwich's own solve refuses
        gen = np.random.default_rng(7)
        a = gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4))
        path = write_json_instance(tmp_path / "a.json", a * (0.6 / np.linalg.norm(a, 2)))
        assert main(["solve", str(path), "--no-meta"]) == 2
        capsys.readouterr()
        assert main(["bounds", str(path), "--depth", "6", "--no-meta"]) == 2
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["ladders"]["lower"]["depth"] == report["ladders"]["upper"]["depth"] == 6
        assert "sandwich" not in report
        assert report["exit_classification"] == "no-solution-evidence"
        assert report["error"].startswith("iterate 6 lost positive definiteness")
        assert captured.err == ""

    def test_capped_sandwich_exits_three(self, tmp_path, capsys):
        path = write_json_instance(tmp_path / "edge.json", np.array([[0.5j]]))
        assert main(["bounds", str(path), "--max-iter", "2000", "--no-meta"]) == 3
        report = json.loads(capsys.readouterr().out)
        assert report["exit_classification"] == "max-iterations"
        assert "ladders" in report and "sandwich" not in report

    def test_singular_coefficient_notes_the_sandwich(self, tmp_path, capsys):
        path = write_json_instance(tmp_path / "singular.json", np.diag([0.3, 0.0]))
        assert main(["bounds", str(path), "--no-meta"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report["ladders"]) == {"lower", "upper"}
        assert report["sandwich"] is None
        assert report["sandwich_note"].startswith("minimal solution is singular to the pivot floor")

    def test_minimal_below_the_pivot_floor_notes_the_sandwich(self, tmp_path, capsys):
        path = write_json_instance(tmp_path / "tiny.json", np.diag([0.3, 3e-8]))
        assert main(["bounds", str(path), "--no-meta"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["sandwich"] is None
        assert report["sandwich_note"].startswith("minimal solution is singular to the pivot floor")

    def test_ladders_bound_the_q_equation(self, tmp_path, capsys):
        demo = Path(__file__).resolve().parents[1] / "scripts" / "demo_2x2.json"
        q_path = write_json_instance(tmp_path / "q.json", np.diag([3.0, 2.0]))

        def run(*command):
            assert main([*command, str(demo), "--q", str(q_path), "--no-meta"]) == 0
            return json.loads(capsys.readouterr().out)

        def matrix(doc):
            return np.array(doc["re"]) + 1j * np.array(doc["im"])

        def min_eig(h):
            return np.linalg.eigvalsh((h + h.conj().T) / 2.0)[0]

        outcome = run("solve", "--minimal")["outcome"]
        report = run("bounds")
        s_k = matrix(report["ladders"]["lower"]["matrices"][-1])
        r_k = matrix(report["ladders"]["upper"]["matrices"][-1])
        assert min_eig(matrix(outcome["x_minus"]) - s_k) >= -1e-10
        assert min_eig(r_k - matrix(outcome["x_plus"])) >= -1e-10
        assert report["sandwich"]["consistent"] is True

    @pytest.mark.parametrize("q", [None, np.array([[2.0, 0.5j], [-0.5j, 1.5]])])
    def test_report_is_the_library_sandwich(self, tmp_path, capsys, q):
        path = write_json_instance(tmp_path / "ex1.json", EX1_A, q)
        assert main(["bounds", str(path), "--no-meta"]) == 0
        report = json.loads(capsys.readouterr().out)
        p = ProblemInstance(EX1_A, q)
        expected = sandwich_report(p, build_ladder(p, "lower"), build_ladder(p, "upper"))
        assert report["sandwich"] == {
            "lower_gap": expected.lower_gap,
            "upper_gap": expected.upper_gap,
            "lower_trend": expected.lower_trend,
            "consistent": expected.consistent,
        }
        for side in ("lower", "upper"):
            rungs = [np.array(m["re"]) + 1j * np.array(m["im"]) for m in report["ladders"][side]["matrices"]]
            assert all(map(np.array_equal, rungs, getattr(expected, side).matrices))

    @pytest.mark.parametrize("command", [["solve", "--minimal"], ["check"], ["bounds"]])
    def test_q_is_factored_once(self, tmp_path, capsys, monkeypatch, command):
        # the loaded instance carries Q's factor into both ladders and the sandwich
        from conric import kernel, solver

        q = np.array([[2.0, 0.5j], [-0.5j, 3.0]])
        a_path = write_json_instance(tmp_path / "a.json", EX1_A)
        q_path = write_json_instance(tmp_path / "q.json", q)
        seen = []
        cholesky_lower = kernel._cholesky_lower

        def counting(h):
            seen.append(np.array_equal(h, q))
            return cholesky_lower(h)

        for module in (kernel, solver):
            monkeypatch.setattr(module, "_cholesky_lower", counting)
        assert main([*command, str(a_path), "--q", str(q_path), "--no-meta"]) == 0
        capsys.readouterr()
        assert sum(seen) == 1

    def test_calls_the_public_ladder_and_sandwich(self, example_file, capsys, monkeypatch):
        # every conric module attribute bound to them is wrapped, as a tracer patches them
        from conric import bounds

        calls = []
        modules = [m for key, m in sys.modules.items() if key == "conric" or key.startswith("conric.")]
        for name in ("build_ladder", "sandwich_report"):
            original = getattr(bounds, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            for module in modules:
                if vars(module).get(name) is original:
                    monkeypatch.setattr(module, name, counting)
        assert main(["bounds", str(example_file), "--no-meta"]) == 0
        capsys.readouterr()
        assert calls == ["build_ladder", "build_ladder", "sandwich_report"]


def test_cli_imports_no_private_conric_name():
    # the CLI is a client of the public API, so a private name it needs should be made public
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "conric")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


class TestIllConditionedQ:
    # Q passes the pivot floor; its Cholesky factor, not its square root,
    # carries the congruence, so the verdict is read, not an input error
    @pytest.mark.parametrize("command, code", [("solve", 2), ("check", 0), ("bounds", 2)])
    def test_exit_codes(self, tmp_path, capsys, command, code):
        path = write_json_instance(tmp_path / "illq.json", ILL_Q_A, q=ILL_Q)
        assert main([command, str(path), "--no-meta"]) == code
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["exit_classification"] == ("success" if code == 0 else "no-solution-evidence")
        assert captured.err == ""
        if command != "bounds":
            assert report["existence"]["verdict"] == "not_exists"

    @pytest.mark.parametrize(
        "command", [["solve", "--minimal"], ["bounds", "--depth", "3"], ["trace"]], ids=lambda c: c[0]
    )
    def test_an_ill_scaled_q_solves(self, tmp_path, capsys, command):
        # X+ fails the pivot floor in Q's coordinates; positive definiteness is decided in the unit problem
        path = write_json_instance(tmp_path / "scaledq.json", SCALED_Q_A, q=SCALED_Q)
        assert main([*command, str(path), "--no-meta"]) == 0
        assert capsys.readouterr().err == ""


class TestErrorExits:
    @staticmethod
    def run(capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize(
        "text, prefix",
        [
            ("", "input error: empty matrix file"),
            ("two\n", "input error: first line must be the dimension, got 'two'"),
            ("2\n0,0 0,0\n", "input error: expected 2 rows of entries"),
            ("2\n0,0\n0,0 0,0\n", "input error: expected 2 entries per row, got 1"),
            ("1\n0.1\n", "input error: entries must be 're,im' pairs, got '0.1'"),
            ("1\n0.1,0\n0.2,0\n7 8 9\n", "input error: expected 1 rows of entries after the dimension line, got 3"),
        ],
        ids=["empty", "dimension", "rows", "entries", "pairs", "extra-lines"],
    )
    def test_text_parser_refusals(self, tmp_path, capsys, text, prefix):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        code, out, err = self.run(capsys, ["solve", str(path), "--no-meta"])
        assert (code, out) == (1, "")
        assert err.startswith(prefix)

    def test_json_missing_field(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 1, "re": [[0.1]]}))
        code, out, err = self.run(capsys, ["check", str(path)])
        assert (code, out) == (1, "")
        assert err.startswith(f"input error: {path}: missing field 'im'")

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"n": None}, "field 'n' must be an integer of at least 1, got null"),
            ({"n": 1.7}, "field 'n' must be an integer of at least 1, got 1.7"),
            ({"n": True}, "field 'n' must be an integer of at least 1, got true"),
            ({"n": "1"}, "field 'n' must be an integer of at least 1, got \"1\""),
            ({"n": 0}, "field 'n' must be an integer of at least 1, got 0"),
            ({"re": [[{"a": 1}]]}, "field 're' must be an array of numbers"),
            ({"im": [[None, [1]]]}, "field 'im' must be an array of numbers"),
            ({"q_re": [["x"]], "q_im": [[0.0]]}, "field 'q_re' must be an array of numbers"),
        ],
        ids=["null", "fraction", "bool", "string", "zero", "object", "ragged", "q-string"],
    )
    def test_malformed_json_fields(self, tmp_path, capsys, fields, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 1, "re": [[0.1]], "im": [[0.0]], **fields}))
        code, out, err = self.run(capsys, ["solve", str(path), "--no-meta"])
        assert (code, out) == (1, "")
        assert err.startswith("input error: ") and message in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("n", [None, 1.7, True])
    def test_malformed_q_dimension(self, tmp_path, capsys, n):
        a_path = write_json_instance(tmp_path / "a.json", np.array([[0.1]]))
        q_path = tmp_path / "q.json"
        q_path.write_text(json.dumps({"n": n, "re": [[1.0]], "im": [[0.0]]}))
        code, out, err = self.run(capsys, ["solve", str(a_path), "--q", str(q_path)])
        assert (code, out) == (1, "")
        assert err == f"input error: {q_path}: field 'n' must be an integer of at least 1, got {json.dumps(n)}\n"

    def test_q_file_of_the_wrong_dimension(self, example_file, tmp_path, capsys):
        q_path = write_json_instance(tmp_path / "q.json", np.eye(3))
        code, out, err = self.run(capsys, ["solve", str(example_file), "--q", str(q_path)])
        assert (code, out) == (1, "")
        assert err.startswith("input error: q dimension 3 does not match a dimension 2")

    def test_q_re_without_q_im(self, tmp_path, capsys):
        path = tmp_path / "half.json"
        doc = {"n": 2, "re": EX1_A.real.tolist(), "im": EX1_A.imag.tolist(), "q_re": np.eye(2).tolist()}
        path.write_text(json.dumps(doc))
        code, out, err = self.run(capsys, ["solve", str(path)])
        assert (code, out) == (1, "")
        assert err.startswith("input error: q_re and q_im must both be present")

    def test_failed_conditions_from_the_exact_criterion_alone(self, tmp_path, capsys):
        # omega(lozenge A) = 0.52 while every necessary condition holds by 0.058 or more, for an
        # invertible A and for it with its smallest singular value zeroed: the criterion decides a
        # singular A too, so the solver does not run
        gen = np.random.default_rng(2)
        base = gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4))
        u, s, vh = np.linalg.svd(base)
        for a in (base, (u * (s * [1.0, 1.0, 1.0, 0.0])) @ vh):
            a = a * (0.52 / numerical_radius(lozenge(a)))
            path = write_json_instance(tmp_path / "exact.json", a)
            code, out, err = self.run(capsys, ["solve", str(path), "--no-meta"])
            assert (code, err) == (2, "")
            report = json.loads(out)
            assert all(c["holds"] for c in report["existence"]["necessary"])
            assert report["failed_conditions"] == ["omega_lozenge_le_half"]
            assert "outcome" not in report

    @pytest.mark.parametrize("command", [["check"], ["trace"]], ids=lambda c: c[0])
    def test_unwritable_out_exits_one(self, example_file, tmp_path, capsys, command):
        out = tmp_path / "missing" / "report.json"
        code, stdout, err = self.run(capsys, [*command, str(example_file), "--out", str(out)])
        assert (code, stdout) == (1, "")
        assert err.startswith("error: cannot write report: ") and err.count("\n") == 1
        assert not out.parent.exists()

    def test_error_raised_inside_a_command(self, example_file, capsys):
        code, out, err = self.run(capsys, ["bounds", str(example_file), "--depth", "0"])
        assert (code, out) == (1, "")
        assert err.startswith("error: depth must be at least 1")


class TestParser:
    def test_one_parser_per_process(self, example_file, capsys):
        runs = (
            ["solve", str(example_file), "--no-meta"],
            ["bounds", str(example_file), "--depth", "two"],
            ["bounds", str(example_file), "--depth", "3", "--no-meta"],
        )

        def run_all(fresh):
            cli._make_parser.cache_clear()
            reports = []
            for argv in runs:
                if fresh:
                    cli._make_parser.cache_clear()
                try:
                    code = main(list(argv))
                except SystemExit as exc:
                    code = exc.code
                captured = capsys.readouterr()
                reports.append((code, captured.out, captured.err))
            return reports

        fresh = run_all(fresh=True)
        shared = run_all(fresh=False)
        assert cli._make_parser.cache_info().misses == 1
        assert [code for code, _, _ in shared] == [0, 1, 0]
        assert shared == fresh

    def test_a_bad_flag_exits_one_and_help_zero(self, example_file, capsys):
        # argparse's own code 2 would read as no-solution-evidence
        assert main(["solve", str(example_file), "--bogus"]) == 1
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: conric")


def strict_json(value):
    """value with each non-finite float replaced by None, as a JSON report writes it (null)."""
    if isinstance(value, dict):
        return {key: strict_json(item) for key, item in value.items()}
    if isinstance(value, list):
        return [strict_json(item) for item in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


class TestJsonReports:
    """JSON reports are exactly json.dumps(report, indent=2) plus a newline, with inf and NaN as null."""

    @staticmethod
    def count_encoder_calls(monkeypatch) -> list:
        """The values that json.dumps (keys, text reports) and the strict encoder (JSON leaves) are given."""
        calls = []
        dumps, strict = json.dumps, cli._STRICT
        monkeypatch.setattr(json, "dumps", lambda v, *args, **kw: calls.append(v) or dumps(v, *args, **kw))
        monkeypatch.setattr(cli, "_STRICT", SimpleNamespace(encode=lambda v: calls.append(v) or strict.encode(v)))
        return calls

    @pytest.mark.parametrize(
        "command",
        [["solve", "--minimal"], ["check"], ["bounds", "--depth", "5"], ["bounds"]],
    )
    @pytest.mark.parametrize("q", [None, np.diag([3.0, 2.0])])
    def test_real_reports(self, tmp_path, capsys, command, q):
        path = write_json_instance(tmp_path / "a.json", -EX1_A / 1.5, q=q)
        main([command[0], str(path), *command[1:], "--no-meta"])
        text = capsys.readouterr().out
        assert text == json.dumps(json.loads(text), indent=2) + "\n"

    def test_failure_report(self, tmp_path, capsys):
        path = write_json_instance(tmp_path / "big.json", 0.8 * np.eye(2))
        assert main(["solve", str(path), "--no-meta"]) == 2
        text = capsys.readouterr().out
        assert text == json.dumps(json.loads(text), indent=2) + "\n"

    def test_edge_values(self, capsys):
        report = {
            "empty_list": [],
            "empty_dict": {},
            "empty_rows": [[], []],
            "none": None,
            "flags": [True, False],
            "grid": [[math.nan, -0.0], [math.inf, -math.inf]],
            "ragged": [[1.0], [2.0, 3.0]],
            "mixed_row": [[1.0, 2]],
            "names": ["r\u00e9sum\u00e9, [x]", "\u03c9 \u2264 1/2"],
            "nested": {"m": {"re": [[0.1]], "im": [[-0.0]]}, "depth": 3},
        }
        _emit(report, SimpleNamespace(format="json", out=None))
        text = capsys.readouterr().out
        assert text == json.dumps(strict_json(report), indent=2) + "\n"
        assert '"grid": [\n    [\n      null,\n      -0.0\n    ],\n    [\n      null,\n      null\n' in text
        json.loads(text, parse_constant=refuse_constant)

    def test_every_subcommand_report_is_the_indented_encoding(self, tmp_path, capsys, monkeypatch):
        # the fast paths carry matrices, traces, gaps and trends; a deep ladder
        # and failing solves and traces are included
        reports = []
        emit = cli._emit
        monkeypatch.setattr(cli, "_emit", lambda r, args: reports.append(r) or emit(r, args))
        rng = np.random.default_rng(48)
        big = write_json_instance(tmp_path / "big.json", 0.8 * np.eye(2))
        for n, q in ((1, None), (3, np.diag([3.0, 2.0, 1.0])), (8, None)):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            a = 0.4 * a / np.linalg.norm(a, 2)
            path = write_json_instance(tmp_path / f"a{n}.json", a, q=q)
            for command in (["solve", "--minimal"], ["check"], ["bounds"], ["bounds", "--depth", "48"]):
                main([command[0], str(path), *command[1:], "--no-meta"])
            # trace writes lines, not a report; its report dict holds the rows
            reports.append({"trace": cli._trace_rows(solve_maximal(ProblemInstance(a, q)).trace)})
        main(["solve", str(big), "--no-meta"])
        with pytest.raises(SolveFailure) as failure:
            solve_maximal(ProblemInstance(0.8 * np.eye(2)))
        reports.append({"trace": cli._trace_rows(failure.value.trace)})
        capsys.readouterr()
        assert len(reports) == 17
        deep = [r for r in reports if r.get("command", "").endswith("--depth 48 --no-meta")]
        assert len(deep) == 3 and len(deep[-1]["ladders"]["lower"]["monotone_gaps"]) == 47
        for report in reports:
            assert cli._indented_json(report) == json.dumps(report, indent=2)

    @pytest.mark.parametrize(
        "value, fast",
        [
            ([0.5, -1e-300, 3, math.nan], True),
            ([[1, 0.25], [2, 1e-17]], True),
            ([True, False], False),
            ([None, 1.0], False),
            (["a, [b]", "c"], False),
            ([1.5, "x, y"], False),
            ([[1, True]], False),
            ([[1.0, None]], False),
            ([[1.0], ["[2], [3]"]], False),
        ],
    )
    def test_only_number_lists_take_one_encoder_call(self, monkeypatch, value, fast):
        dumps = json.dumps
        calls = self.count_encoder_calls(monkeypatch)
        # distinct copies: a list that repeats an item by identity encodes it once (next test)
        value = [item for _ in range(20) for item in copy.deepcopy(value)]
        text = cli._indented_json({"v": value})
        assert text == dumps(strict_json({"v": value}), indent=2)
        # one call for the key, then one for the whole list (three where the strict encoder
        # refuses a non-finite float: the refusal, the lax text and its nulled copy) or one per element
        refused = any(not math.isfinite(x) for x in value if isinstance(x, float))
        assert len(calls) == 2 + 2 * refused if fast else len(calls) > len(value)

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_repeated_items_take_one_encoder_call_each(self, monkeypatch, capsys, fmt):
        # the rungs of a converged ladder: each distinct rung is encoded once however often it
        # recurs, by one C-encoder call per matrix in json and one per rung in text
        rungs = [{"re": [[0.5, -1e-17]], "im": [[0.0, 2.5]]}, {"re": [[0.25, 3.0]], "im": [[-0.0, 1.0]]}]
        report = {"matrices": rungs + rungs * 20}
        dumps = json.dumps
        calls = self.count_encoder_calls(monkeypatch)
        _emit(report, SimpleNamespace(format=fmt, out=None))
        matrices = [call for call in calls if isinstance(call, (dict, list)) and call]
        assert len(matrices) == (4 if fmt == "json" else 2)
        out = capsys.readouterr().out
        if fmt == "json":
            assert out == dumps(report, indent=2) + "\n"
        else:
            assert out == f"matrices = {dumps(report['matrices'])}\n"

    @given(
        st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
            lambda children: st.lists(children, max_size=4)
            | st.lists(st.lists(st.floats(), max_size=3), max_size=3)
            | st.dictionaries(st.text(max_size=5), children, max_size=4),
            max_leaves=20,
        )
    )
    def test_any_json_value(self, value):
        # strict JSON has no Infinity or NaN, so a report writes each non-finite float as null
        out = io.StringIO()
        with redirect_stdout(out):
            _emit({"value": value}, SimpleNamespace(format="json", out=None))
        assert out.getvalue() == json.dumps(strict_json({"value": value}), indent=2) + "\n"
        json.loads(out.getvalue(), parse_constant=refuse_constant)


class TestHugeCoefficients:
    # a part beyond 2^200 fails norm_lt_one; every subcommand says so without overflowing on the way
    A3 = np.array([[1.0, 0.5j, -0.25], [0.3 - 0.2j, -1j, 0.2], [0.1j, 0.4, 0.9 + 0.1j]])

    @pytest.mark.parametrize("scale", [1e154, 1e300])
    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("command, code", [("solve", 2), ("check", 0), ("bounds", 2), ("trace", 2)])
    def test_reports_parse_and_nothing_warns(self, tmp_path, capsys, n, scale, command, code):
        a = scale * (np.array([[2.0]]) if n == 1 else self.A3)
        path = write_json_instance(tmp_path / "a.json", a)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main([command, str(path), "--no-meta"]) == code
        captured = capsys.readouterr()
        if command == "trace":
            # the first iterate leaves the cone, and no step is taken
            assert captured.out == "\n"
            top = 2 * scale if n == 1 else scale
            assert captured.err == f"error: iterate 1 lost positive definiteness (||C|| >= {top:.3e} > 1)\n"
            return
        assert captured.err == ""
        report = json.loads(captured.out, parse_constant=refuse_constant)
        if command == "check":
            assert report["existence"]["verdict"] == "not_exists"
        else:
            assert report["exit_classification"] == "no-solution-evidence"
        if command == "bounds":
            assert report["error"].startswith("lower ladder iterate 1 is not positive definite (||C|| >= ")

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize(
        "command", [["solve", "--minimal"], ["check"], ["bounds"], ["trace"]], ids=["solve", "check", "bounds", "trace"]
    )
    def test_a_solvable_twin_scales(self, tmp_path, capsys, n, command):
        # A and Q both times 1e200 have the unit problem of (A, I): every norm and residual stays finite
        a = 1e200 * (np.array([[0.3j]]) if n == 1 else 0.1 * self.A3)
        q = 1e200 * np.eye(n)
        path = write_json_instance(tmp_path / "a.json", a, q)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*command, str(path), "--no-meta"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        if command == ["trace"]:
            changes = [float(line.split()[1]) for line in captured.out.splitlines()]
            assert changes and all(math.isfinite(change) for change in changes)
            return
        report = json.loads(captured.out, parse_constant=refuse_constant)
        if command == ["bounds"]:
            assert report["sandwich"]["consistent"]
            return
        assert report["existence"]["verdict"] == "exists"
        if command[0] == "solve":
            bound = ProblemInstance(a, q).residual_bound
            for key in ("residual", "x_minus_residual"):
                assert 0.0 <= report["outcome"][key] <= bound, key


class TestOverflowingUnitCoefficient:
    # a finite A over a tiny Q whose a_q overflows: ||a_q|| > 1, which every command reports as such
    INPUTS = {
        "diag": (np.diag([1e10, 0.2]), 1e-300 * np.eye(2)),
        "scalar": (np.array([[0.3]]), np.array([[1e-320]])),
    }

    @staticmethod
    def run(path, *command) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
            warnings.simplefilter("error")
            code = main([command[0], str(path), *command[1:], "--no-meta"])
        return code, out.getvalue(), err.getvalue()

    @pytest.mark.parametrize("name", INPUTS)
    def test_every_command_reports_no_solution(self, tmp_path, name):
        path = write_json_instance(tmp_path / "a.json", *self.INPUTS[name])
        assert np.isinf(ProblemInstance(*self.INPUTS[name]).a_q).any()
        code, out, err = self.run(path, "check")
        existence = json.loads(out, parse_constant=refuse_constant)["existence"]
        assert (code, err, existence["verdict"]) == (0, "", "not_exists")
        assert {"name": "norm_lt_one", "holds": False, "margin": None} in existence["necessary"]
        assert existence["exact_invertible"] == {"name": "omega_lozenge_le_half", "holds": False, "margin": None}
        code, out, err = self.run(path, "solve", "--minimal")
        report = json.loads(out, parse_constant=refuse_constant)
        assert (code, err, report["failed_conditions"]) == (2, "", ["norm_lt_one"])
        code, out, err = self.run(path, "bounds")
        report = json.loads(out, parse_constant=refuse_constant)
        assert (code, err, report["exit_classification"]) == (2, "", "no-solution-evidence")
        assert report["error"].startswith("lower ladder iterate 1 is not positive definite (||C|| >= inf > 1)")
        code, out, err = self.run(path, "trace")
        assert (code, out, err) == (2, "\n", "error: iterate 1 lost positive definiteness (||C|| >= inf > 1)\n")

    @pytest.mark.parametrize("name", INPUTS)
    @pytest.mark.parametrize("command", ["check", "solve", "bounds", "trace"])
    def test_a_nan_input_is_still_an_input_error(self, tmp_path, name, command):
        a, q = self.INPUTS[name]
        path = write_json_instance(tmp_path / "a.json", a, np.where(np.eye(len(q)) > 0, math.nan, q))
        assert self.run(path, command)[0] == cli.EXIT_INPUT


@st.composite
def finite_instances(draw):
    """(A, Q or None) of every hard shape: tiny, huge (up to 1e300), singular, non-normal or ||A|| = 1/2 A,
    and Q with condition number up to 1e8 and eigenvalues from 1e-300 to 1e8, so that a huge A over a
    tiny Q overflows a_q."""
    n = draw(st.integers(min_value=1, max_value=3))
    kind = draw(st.sampled_from(["tiny", "huge", "singular", "non-normal", "boundary"]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if kind == "tiny":
        a = z * 10.0 ** -draw(st.floats(min_value=1.0, max_value=300.0))
    elif kind == "huge":
        a = z / np.abs(z).max() * 10.0 ** draw(st.floats(min_value=0.0, max_value=300.0))
    elif kind == "singular":
        a = np.outer(z[:, 0], z[0]) if n > 1 else np.zeros((1, 1))
        a = a * draw(st.floats(min_value=0.01, max_value=1.0)) / max(np.abs(a).max(), 1.0)
    elif kind == "non-normal":
        a = np.triu(z) * draw(st.floats(min_value=0.05, max_value=0.6))
    else:
        # a unitary times 1/2, on or inside the existence boundary
        a = 0.5 * np.linalg.qr(z)[0]
    if not draw(st.booleans()):
        return a, None
    u = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    q = (u * 10.0 ** (draw(st.floats(min_value=0.0, max_value=8.0)) * rng.uniform(size=n))) @ u.conj().T
    q = q * 10.0 ** draw(st.floats(min_value=-300.0, max_value=0.0))
    return a, (q + q.conj().T) / 2.0


def text_tree(text: str) -> dict:
    """The report tree of a text report: each 'dotted.key = value' line re-nested, its value strict JSON."""
    tree: dict = {}
    for line in text.splitlines():
        key, separator, value = line.partition(" = ")
        assert separator, line
        *parents, leaf = key.split(".")
        node = tree
        for name in parents:
            node = node.setdefault(name, {})
        node[leaf] = json.loads(value, parse_constant=refuse_constant)
    return tree


class TestEveryFiniteInput:
    # the minimal solve's known refusal: at a near-singular X- the residual, evaluated in
    # double precision, can exceed residual_tol through rounding alone (README, numerical notes)
    DUAL_ROUTE = "error: dual-route residual "

    @staticmethod
    def run(path, *command) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
            # the warnings that CI's Tier-1 run turns into errors
            for category in (RuntimeWarning, DeprecationWarning, PendingDeprecationWarning):
                warnings.simplefilter("error", category)
            code = main([command[0], str(path), *command[1:], "--max-iter", "2000", "--no-meta"])
        return code, out.getvalue(), err.getvalue()

    @settings(derandomize=True, deadline=None, max_examples=130)
    @given(finite_instances())
    def test_every_command_reports_truthfully(self, tmp_path_factory, instance):
        a, q = instance
        path = write_json_instance(tmp_path_factory.mktemp("finite") / "a.json", a, q)
        # the library's answer on the instance the CLI loads, under the same tolerances
        cv = cross_validate(ProblemInstance(a, q, Tolerances(max_iter=2000)))
        assert not (cv.existence.verdict == "not_exists" and cv.solver_succeeded)
        existence = strict_json(cli._existence_json(cv.existence))
        for command in (["check"], ["solve", "--minimal"], ["trace"], ["bounds"]):
            code, out, err = self.run(path, *command)
            if code == 4:
                assert err.startswith(self.DUAL_ROUTE), (command, err)
            else:
                assert code in (0, 2, 3), (command, err)
            if command[0] == "trace":
                continue
            report = json.loads(out, parse_constant=refuse_constant)
            # the text report is the JSON report flattened, one strict JSON value a line
            text_code, text, text_err = self.run(path, *command, "--format", "text")
            assert (text_code, text_err) == (code, err)
            tree = text_tree(text)
            assert tree.pop("command").replace(" --format text", "") == report.pop("command")
            assert tree == report
            if command[0] != "bounds":
                assert report["existence"] == existence
            if command[0] != "solve":
                continue
            verdict = report["existence"]["verdict"]
            assert (verdict, code) not in (("exists", 2), ("not_exists", 0), ("not_exists", 3))
            if verdict == "not_exists":
                continue
            # solve ran solve_maximal as cross_validate did, then the minimal solve
            if cv.solver_succeeded:
                assert code == 0 or err.startswith(self.DUAL_ROUTE), (code, err)
            else:
                assert code == cli.EXIT_CODES[cv.solver_error.split(": ", 1)[0]], (code, cv.solver_error)


class TestInternalErrors:
    # an internal inconsistency is reported as such, never as an input error

    @staticmethod
    def sabotage(monkeypatch, broken):
        import conric.solver as solver_mod
        from conric.embedding import NotHeartStructuredError

        def drifted(w):
            raise NotHeartStructuredError("block structure drift 1.000e-03 exceeds tolerance")

        if broken == "engine":
            # the minimal embedded solution W- = I - Y+, Y+ the maximal solution of the dual, coefficient B^T
            loop = solver_mod._fixed_point_generic

            def minimal(b, tol):
                dual, *rest = loop(b.T, tol)
                return (np.eye(len(b)) - dual, *rest)

            monkeypatch.setattr(solver_mod, "_fixed_point_generic", minimal)
        else:
            monkeypatch.setattr(solver_mod, "unheart", drifted)

    @pytest.mark.parametrize("broken", ["engine", "unheart"])
    def test_solve_exits_four_with_a_report(self, example_file, capsys, monkeypatch, broken):
        self.sabotage(monkeypatch, broken)
        code = main(["solve", str(example_file), "--minimal", "--no-meta"])
        captured = capsys.readouterr()
        assert code == 4
        report = json.loads(captured.out)
        assert report["exit_classification"] == "internal-error"
        assert "outcome" not in report
        assert captured.err == f"error: {report['error']}\n"
        expected = "solution is not maximal: rho(M conj(M))" if broken == "engine" else "drift"
        assert expected in report["error"]

    @pytest.mark.parametrize(
        "error", [NotPositiveDefiniteError("unclassified"), np.linalg.LinAlgError("unclassified")]
    )
    def test_an_unclassified_failure_is_internal(self, example_file, capsys, monkeypatch, error):
        def failing(p):
            raise error

        monkeypatch.setattr(cli, "solve_maximal", failing)
        assert main(["solve", str(example_file), "--no-meta"]) == 4
        captured = capsys.readouterr()
        assert json.loads(captured.out)["exit_classification"] == "internal-error"
        assert captured.err == "error: unclassified\n"

    @pytest.mark.parametrize("command", ["solve", "check", "bounds"])
    def test_a_non_finite_matrix_after_loading_is_internal(self, example_file, capsys, monkeypatch, command):
        # the kernel refuses it with a ValueError, which at load time would be an input error
        import conric.solver as solver_mod

        monkeypatch.setattr(solver_mod, "normalize_q", lambda p: np.full(p.a.shape, np.nan))
        assert main([command, str(example_file), "--no-meta"]) == 4
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["exit_classification"] == "internal-error"
        assert report["error"] == "matrix entries must be finite"
        assert captured.err == "error: matrix entries must be finite\n"

    def test_trace_exits_four(self, example_file, capsys, monkeypatch):
        self.sabotage(monkeypatch, "engine")
        assert main(["trace", str(example_file)]) == 4
        assert capsys.readouterr().err.startswith("error: unit solution is not maximal: rho(M conj(M)) = ")


class TestTraceCommand:
    def test_two_column_output(self, example_file, capsys):
        code = main(["trace", str(example_file)])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) >= 5
        ks, values = zip(*(line.split() for line in lines))
        assert list(ks) == [str(i + 1) for i in range(len(lines))]
        floats = [float(v) for v in values]
        # eventually decreasing
        assert floats[-1] < floats[0]

    @pytest.mark.parametrize("a", [np.array([[0.3 + 0.2j]]), EX1_A], ids=["n1", "n2"])
    def test_lines_are_repr_floats(self, tmp_path, capsys, a):
        path = write_json_instance(tmp_path / "a.json", a)
        assert main(["trace", str(path)]) == 0
        expected = solve_maximal(ProblemInstance(a)).trace
        lines = capsys.readouterr().out.splitlines()
        assert lines == [f"{k + 1} {v!r}" for k, v in enumerate(expected)]
        assert all(type(float(line.split()[1])) is float for line in lines)

    def test_failure_emits_partial_trace(self, tmp_path, capsys):
        path = write_json_instance(tmp_path / "big.json", 0.8 * np.eye(2))
        code = main(["trace", str(path)])
        assert code == 2
