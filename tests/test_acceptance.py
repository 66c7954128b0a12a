"""Acceptance suite: one test per contract criterion, each printing a
PASS line (run with ``pytest tests/test_acceptance.py -v`` for the
per-criterion verdict lines, ``-s`` to see the prints)."""

import json
import time

import numpy as np
import pytest

from conric.bounds import build_ladder, closed_form_bounds
from conric.cli import main as cli_main
from conric.conditions import check_existence, con_normal_closed_form
from conric.embedding import (
    e_matrix,
    heart,
    heart_structure_drift,
    lozenge,
    p_matrix,
    unheart,
)
from conric.kernel import (
    Tolerances,
    adjoint,
    conj,
    is_positive_definite,
    mat_inverse,
    numerical_radius,
    op_norm_2,
    psd_sqrt,
    spectral_radius,
    transpose,
)
from conric.solver import (
    MaxIterationsExceeded,
    NoSolutionEvidence,
    ProblemInstance,
    _fixed_point_generic,
    residual,
    solve_maximal,
    solve_minimal,
    standard_solve_maximal,
)
from helpers import (
    EX1_A,
    EX1_X_PLUS,
    EX1_X_PLUS_STANDARD,
    direct_unit_maximal,
    loop_iterates,
    random_complex,
    random_solvable,
    random_unitary,
    random_well_conditioned_solvable,
    random_with_norm,
    scalar_ladder,
)

RNG_SEED = 8261


def _sampler():
    return np.random.default_rng(RNG_SEED)


def test_criterion_01_example_maximal_solution():
    started = time.perf_counter()
    out = solve_maximal(ProblemInstance(EX1_A))
    elapsed = time.perf_counter() - started
    assert np.abs(out.solution - EX1_X_PLUS).max() <= 1e-8
    assert out.residual <= 1e-9
    assert elapsed < 1.0
    print(
        f"ACCEPTANCE 01 PASS: example maximal solution to 1e-8, "
        f"residual {out.residual:.2e}, {elapsed * 1e3:.0f} ms"
    )


def test_criterion_02_standard_equation_contrast():
    # numerical radius of this coefficient sits exactly on the classical
    # equation's existence boundary, where the plain iteration converges like
    # 1/k; doubling still halves the error each step, and with a change
    # threshold below rounding it stops at the first repeat, within 1e-8
    tol = Tolerances(stop_rel=5e-16, residual_tol=1e-12, max_iter=45_000_000)
    std = standard_solve_maximal(EX1_A, tol)
    assert np.abs(std.solution - EX1_X_PLUS_STANDARD).max() <= 1e-8
    contrast = op_norm_2(solve_maximal(ProblemInstance(EX1_A)).solution - std.solution)
    assert contrast > 0.05
    print(
        f"ACCEPTANCE 02 PASS: standard-equation solution to 1e-8 "
        f"({std.iterations} iterations), contrast {contrast:.4f} > 0.05"
    )


def test_criterion_03_rate_certificate():
    out = solve_maximal(ProblemInstance(EX1_A))
    assert out.rate_certificate == pytest.approx(0.614, abs=1e-3)
    assert out.linear_rate_guaranteed
    mu = 0.614**2
    start = max(1, len(out.trace) // 4)
    ratios = [
        out.trace[i + 1] / out.trace[i]
        for i in range(start, len(out.trace) - 1)
        if out.trace[i] > 0.0
    ]
    assert ratios
    assert max(ratios) <= mu + 0.05
    print(
        f"ACCEPTANCE 03 PASS: certificate {out.rate_certificate:.4f}, "
        f"linear flag set, max tail ratio {max(ratios):.4f} <= {mu + 0.05:.4f}"
    )


def test_criterion_04_operator_identity_suite():
    rng = _sampler()
    checked = 0
    for _ in range(200):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        a = random_complex(rng, n, m)
        b = random_complex(rng, m, int(rng.integers(1, 7)))
        ah = heart(a)
        assert np.abs(heart(a @ b) - ah @ heart(b)).max() <= 1e-10 * max(
            1.0, op_norm_2(a) * op_norm_2(b)
        )
        assert np.abs(heart(transpose(a)) - e_matrix(m) @ ah.T @ e_matrix(n)).max() <= 1e-10
        assert np.abs(heart(adjoint(a)) - ah.T).max() <= 1e-10
        assert np.abs(heart(conj(a)) - e_matrix(n) @ ah @ e_matrix(m)).max() <= 1e-10
        assert np.abs(lozenge(a) - e_matrix(n) @ ah).max() <= 1e-12

        diag = np.zeros((2 * n, 2 * m), dtype=np.complex128)
        diag[:n, :m] = a
        diag[n:, m:] = conj(a)
        assert (
            np.abs(ah - p_matrix(n) @ diag @ adjoint(p_matrix(m))).max() <= 1e-10
        )

        norm = op_norm_2(a)
        assert abs(op_norm_2(ah) - norm) <= 1e-10 * max(1.0, norm)
        assert abs(op_norm_2(lozenge(a)) - norm) <= 1e-10 * max(1.0, norm)

        if n == m:
            square = a
            loz = lozenge(square)
            assert abs(
                spectral_radius(heart(square)) - spectral_radius(square)
            ) <= 1e-6 * max(1.0, spectral_radius(square))
            rho_pair = np.sqrt(spectral_radius(square @ conj(square)))
            assert abs(spectral_radius(loz) - rho_pair) <= 1e-6 * max(1.0, rho_pair)
            assert np.abs(loz.T @ loz - heart(adjoint(square) @ square)).max() <= 1e-10
            assert (
                np.abs(loz @ loz.T - heart(conj(square @ adjoint(square)))).max()
                <= 1e-10
            )
            shifted = square + 3.0 * np.eye(n)
            assert (
                np.abs(heart(mat_inverse(shifted)) - mat_inverse(heart(shifted))).max()
                <= 1e-8
            )
            hpd = square @ adjoint(square) + 0.1 * np.eye(n)
            assert is_positive_definite(heart(hpd)).ok
            assert (
                np.abs(psd_sqrt(heart(hpd)) - heart(psd_sqrt(hpd))).max()
                <= 1e-9 * max(1.0, op_norm_2(hpd))
            )
        checked += 1
    assert checked == 200
    print("ACCEPTANCE 04 PASS: operator identity suite on 200 random instances")


def test_criterion_05_monotone_envelope_and_structure():
    rng = _sampler()
    for _ in range(100):
        n = int(rng.integers(1, 4))
        a = random_solvable(rng, n)
        b, tol = lozenge(a), Tolerances()
        # at Q = I solve_maximal's engine runs this sequence
        solution, iterations, _, _ = _fixed_point_generic(b, tol)
        iterates = loop_iterates(b, tol, iterations)
        for w_prev, w_next in zip(iterates, iterates[1:]):
            assert np.linalg.eigvalsh(w_prev - w_next)[0] >= -1e-12
        for w in iterates:
            assert heart_structure_drift(w) <= 1e-10
        direct = direct_unit_maximal(a)
        assert op_norm_2(unheart(solution) - direct) <= 1e-8
    print(
        "ACCEPTANCE 05 PASS: monotone envelope, heart structure, and "
        "embedded-vs-direct agreement on 100 instances"
    )


@pytest.fixture(scope="module")
def nonsingular_instances():
    # shared by criteria 6 and 7; singular values bounded away from zero
    # keep the depth-6 strict domination gaps above rounding level
    rng = np.random.default_rng(RNG_SEED + 1)
    instances = []
    for _ in range(100):
        n = int(rng.integers(1, 4))
        a = random_well_conditioned_solvable(rng, n)
        p = ProblemInstance(a)
        instances.append((a, solve_maximal(p).solution, solve_minimal(p).solution))
    return instances


def test_criterion_06_duality_and_order(nonsingular_instances):
    for a, x_plus, x_minus in nonsingular_instances:
        p = ProblemInstance(a)
        assert residual(x_minus, p) <= 1e-9
        assert np.linalg.eigvalsh(x_plus - x_minus)[0] >= -1e-9
    print(
        "ACCEPTANCE 06 PASS: dual-route minimal solutions solve to 1e-9 "
        "and respect the order on 100 instances"
    )


def test_criterion_07_bounds_sandwich(nonsingular_instances):
    for a, x_plus, x_minus in nonsingular_instances:
        p = ProblemInstance(a)
        lower = build_ladder(p, "lower", 6)
        upper = build_ladder(p, "upper", 6)
        assert lower.truncated_at is None and upper.truncated_at is None
        for rung in lower.matrices:
            assert np.linalg.eigvalsh(x_minus - rung)[0] > 0.0
        for rung in upper.matrices:
            assert np.linalg.eigvalsh(rung - x_plus)[0] > 0.0
        assert all(g >= -1e-9 for g in lower.monotone_gaps)
        assert all(g >= -1e-9 for g in upper.monotone_gaps)
        for which, side, index in (
            ("S1", lower, 0), ("S2", lower, 1), ("S3", lower, 2),
            ("R1", upper, 0), ("R2", upper, 1), ("R3", upper, 2),
        ):
            assert (
                np.abs(closed_form_bounds(a, which) - side.matrices[index]).max()
                <= 1e-10
            )
    for mag in (0.3, 0.45):
        a = mag * np.exp(1.1j) * np.eye(1)
        low_oracle, up_oracle = scalar_ladder(complex(a[0, 0]), 6)
        p = ProblemInstance(a)
        lower = build_ladder(p, "lower", 6)
        upper = build_ladder(p, "upper", 6)
        for k in range(6):
            assert abs(lower.matrices[k][0, 0].real - low_oracle[k]) <= 1e-12
            assert abs(upper.matrices[k][0, 0].real - up_oracle[k]) <= 1e-12
    print(
        "ACCEPTANCE 07 PASS: depth-6 ladders pinch every solution, stay "
        "monotone, and match closed forms and the scalar oracle"
    )


def test_criterion_08_condition_soundness():
    rng = _sampler()
    necessary_violations = 0
    solved = 0
    for _ in range(500):
        n = int(rng.integers(1, 4))
        a = random_solvable(rng, n, max_norm=0.499)
        out = solve_maximal(ProblemInstance(a))
        assert out.residual <= 1e-9
        solved += 1
        report = check_existence(a)
        for check in report.necessary:
            if check.margin < -1e-8:
                necessary_violations += 1
    assert solved == 500
    assert necessary_violations == 0

    agreements = 0
    attempts = 0
    while agreements < 200 and attempts < 4000:
        attempts += 1
        n = int(rng.integers(1, 4))
        a = random_with_norm(rng, n, float(rng.uniform(0.3, 0.9)))
        if np.linalg.svd(a, compute_uv=False)[-1] <= 1e-6:
            continue
        omega = numerical_radius(lozenge(a))
        margin = 0.5 - omega
        if abs(margin) <= 1e-4:
            continue
        try:
            solve_maximal(ProblemInstance(a))
            succeeded = True
        except (NoSolutionEvidence, MaxIterationsExceeded):
            succeeded = False
        assert succeeded == (margin > 0.0), (margin, succeeded)
        agreements += 1
    assert agreements == 200
    print(
        "ACCEPTANCE 08 PASS: 0/500 necessary-condition violations, 500/500 "
        "small-norm solves, 200/200 numerical-radius verdict agreements"
    )


def test_criterion_09_con_normal_closed_forms():
    rng = _sampler()
    for trial in range(100):
        n = int(rng.integers(1, 4))
        if trial % 2 == 0:
            moduli = rng.uniform(0.05, 0.49, size=n)
            phases = np.exp(2j * np.pi * rng.uniform(size=n))
            a = np.diag(moduli * phases)
        else:
            u = random_unitary(rng, n)
            q_real, _ = np.linalg.qr(rng.normal(size=(n, n)))
            spectrum = np.diag(rng.uniform(-0.49, 0.49, size=n))
            a = q_real @ spectrum @ q_real.T
        if np.linalg.svd(a, compute_uv=False)[-1] <= 1e-3:
            continue
        p = ProblemInstance(a)
        hi_closed = con_normal_closed_form(a, "maximal")
        lo_closed = con_normal_closed_form(a, "minimal")
        assert np.abs(hi_closed - solve_maximal(p).solution).max() <= 1e-8
        assert np.abs(lo_closed - solve_minimal(p).solution).max() <= 1e-8
    boundary = 0.5 * np.eye(2)
    assert np.abs(con_normal_closed_form(boundary, "maximal") - 0.5 * np.eye(2)).max() <= 1e-8
    assert np.abs(con_normal_closed_form(boundary, "minimal") - 0.5 * np.eye(2)).max() <= 1e-8
    print(
        "ACCEPTANCE 09 PASS: closed forms match iterative solutions on 100 "
        "con-normal instances and collapse correctly at the boundary"
    )


def test_criterion_10_cli_contract(tmp_path, capsys):
    def write(name, a):
        path = tmp_path / name
        path.write_text(
            json.dumps({"n": a.shape[0], "re": a.real.tolist(), "im": a.imag.tolist()})
        )
        return str(path)

    example = write("example.json", EX1_A)
    too_big = write("big.json", 0.8 * np.eye(2))
    boundary = write("boundary.json", 0.5 * np.eye(2))

    assert cli_main(["solve", example, "--no-meta"]) == 0
    report = json.loads(capsys.readouterr().out)
    x = np.array(report["outcome"]["x_plus"]["re"]) + 1j * np.array(
        report["outcome"]["x_plus"]["im"]
    )
    round_trip = residual(x, ProblemInstance(EX1_A))
    assert round_trip <= 1e-9

    assert cli_main(["solve", too_big, "--no-meta"]) == 2
    capsys.readouterr()
    assert cli_main(["solve", boundary, "--max-iter", "2000", "--no-meta"]) == 3
    capsys.readouterr()
    print(
        f"ACCEPTANCE 10 PASS: exit codes 0/2/3 on the canonical inputs, "
        f"round-trip residual {round_trip:.2e}"
    )
