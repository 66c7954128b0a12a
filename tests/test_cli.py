import io
import json
import math
from contextlib import redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conric.cli import _emit, main
from conric.solver import ProblemInstance, residual
from helpers import EX1_A, EX1_X_PLUS


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
        assert "nonsingular" in report["outcome"]["x_minus_note"]

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
        main(["solve", str(example_file), "--no-meta"])
        first = capsys.readouterr().out
        main(["solve", str(example_file), "--no-meta"])
        second = capsys.readouterr().out
        assert first == second

    def test_meta_included_by_default(self, example_file, capsys):
        main(["solve", str(example_file)])
        report = json.loads(capsys.readouterr().out)
        assert "generated_at" in report["meta"]

    def test_text_format(self, example_file, capsys):
        code = main(["solve", str(example_file), "--format", "text", "--no-meta"])
        assert code == 0
        out = capsys.readouterr().out
        assert "exit_classification = 'success'" in out

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

    def test_unknown_profile_env(self, example_file, monkeypatch, capsys):
        monkeypatch.setenv("CONRIC_TOL_PROFILE", "loose")
        assert main(["solve", str(example_file)]) == 1

    def test_strict_profile_env(self, example_file, monkeypatch, capsys):
        monkeypatch.setenv("CONRIC_TOL_PROFILE", "strict")
        code = main(["solve", str(example_file), "--no-meta"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["tolerances"]["residual_tol"] == 1e-11

    def test_tol_flag_overrides_residual(self, example_file, capsys):
        code = main(["solve", str(example_file), "--tol", "1e-6", "--no-meta"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["tolerances"]["residual_tol"] == 1e-6
        assert report["outcome"]["residual"] <= 1e-6


class TestCheckCommand:
    def test_example_report(self, example_file, capsys):
        code = main(["check", str(example_file), "--no-meta"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["existence"]["verdict"] == "exists"
        # the norm bound is silent here, the exact invertible test decides
        assert report["existence"]["sufficient_norm_half"]["margin"] < 0.0
        assert report["existence"]["exact_invertible"]["holds"] is True


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


class TestJsonReports:
    """JSON reports are exactly json.dumps(report, indent=2) plus a newline."""

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
        assert capsys.readouterr().out == json.dumps(report, indent=2) + "\n"

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
        out = io.StringIO()
        with redirect_stdout(out):
            _emit({"value": value}, SimpleNamespace(format="json", out=None))
        assert out.getvalue() == json.dumps({"value": value}, indent=2) + "\n"


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

    def test_failure_emits_partial_trace(self, tmp_path, capsys):
        path = write_json_instance(tmp_path / "big.json", 0.8 * np.eye(2))
        code = main(["trace", str(path)])
        assert code == 2
