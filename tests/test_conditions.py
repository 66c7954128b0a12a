import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conric.bounds import build_ladder
from conric.conditions import (
    BAND,
    NormExceedsHalf,
    NotConNormal,
    check_existence,
    con_normal_closed_form,
    cross_validate,
)
from conric.embedding import lozenge
from conric.kernel import spectral_radius
from conric.solver import ProblemInstance, SingularCoefficient, residual, solve_maximal, solve_minimal
from helpers import (
    EX1_A,
    numerical_radius_loop,
    random_complex,
    random_solvable,
    random_unitary,
    random_with_norm,
    scalar_solutions,
)


def margins(report):
    return {c.name: c.margin for c in report.necessary}


class TestCheckExistence:
    def test_zero_coefficient(self):
        report = check_existence(np.zeros((2, 2)))
        assert report.verdict == "exists"
        m = margins(report)
        assert m["rho_quarter"] == pytest.approx(0.25, abs=1e-10)
        assert m["norm_lt_one"] == pytest.approx(1.0, abs=1e-10)
        assert report.sufficient_norm_half.margin == pytest.approx(0.5, abs=1e-10)
        # zero matrix is singular, the exact test is omitted
        assert report.exact_invertible is None

    def test_example_exists_through_exact_test(self):
        report = check_existence(EX1_A)
        assert report.verdict == "exists"
        # norm is about 0.6036, so the sufficient bound is silent
        assert report.sufficient_norm_half.margin < 0.0
        assert not report.sufficient_norm_half.holds
        assert report.exact_invertible is not None
        assert report.exact_invertible.holds
        # omega(lozenge(A)) = sqrt(2)/4 here, well inside the threshold
        assert report.exact_invertible.margin == pytest.approx(0.5 - np.sqrt(2) / 4, abs=1e-6)

    def test_large_coefficient_fails_necessary(self):
        report = check_existence(0.8 * np.eye(2))
        assert report.verdict == "not_exists"
        assert margins(report)["rho_quarter"] == pytest.approx(0.25 - 0.64, abs=1e-8)
        assert "rho_quarter" in [c.name for c in report.necessary_failures()]

    def test_margins_signed_consistently(self, rng):
        for _ in range(10):
            a = random_complex(rng, 3) * rng.uniform(0.05, 0.6)
            report = check_existence(a)
            for c in report.necessary:
                assert c.holds == (c.margin > 0.0) or abs(c.margin) < 1e-8 or c.name == "gram_sum"
            s = report.sufficient_norm_half
            assert s.holds == (s.margin >= 0.0)

    @pytest.mark.parametrize("size", [1e154, 2e154, 1e300])
    @pytest.mark.parametrize("n", [1, 3])
    def test_a_huge_finite_coefficient_gets_a_report(self, rng, n, size):
        # the squares of such a coefficient overflow, so the checks run on an exact power-of-two
        # scaling of it; norm_lt_one fails, no margin is NaN and no RuntimeWarning leaks
        a = size * random_unitary(rng, n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = check_existence(a)
        assert report.verdict == "not_exists"
        m = margins(report)
        assert m["norm_lt_one"] == pytest.approx(-size, rel=1e-12)
        assert report.sufficient_norm_half.margin == pytest.approx(-size, rel=1e-12)
        assert report.exact_invertible.margin == pytest.approx(-size, rel=1e-12)
        assert m["rho_quarter"] < 0.0 and m["gram_sum"] < 0.0
        assert not any(math.isnan(c.margin) for c in report.necessary)

    def test_exact_test_failure_disproves(self):
        # invertible, all necessary conditions pass, numerical radius well
        # above one half: the two-sided criterion settles non-existence
        a = np.array([[0.0, 0.8], [0.28j, 0.0]])
        report = check_existence(a)
        assert all(c.holds for c in report.necessary)
        assert report.exact_invertible is not None
        assert report.exact_invertible.margin == pytest.approx(-0.04, abs=1e-6)
        assert report.verdict == "not_exists"

    def test_equivalent_forms_of_shift_conditions(self, rng):
        # rho((A +- A^T) conj(A +- A^T)) equals rho(loz(A) +- loz(A)^T)^2
        for _ in range(6):
            a = random_complex(rng, 3) * 0.4
            loz = lozenge(a)
            for sign in (1.0, -1.0):
                m = a + sign * a.T
                direct = spectral_radius(m @ np.conj(m))
                embedded = spectral_radius(loz + sign * loz.T) ** 2
                assert direct == pytest.approx(embedded, rel=1e-6, abs=1e-6)


class TestConNormalClosedForm:
    def test_half_identity_boundary(self):
        a = 0.5 * np.eye(2)
        hi = con_normal_closed_form(a, "maximal")
        lo = con_normal_closed_form(a, "minimal")
        assert np.allclose(hi, 0.5 * np.eye(2), atol=1e-12)
        assert np.allclose(lo, 0.5 * np.eye(2), atol=1e-12)

    def test_diagonal(self):
        a = np.diag([0.3, 0.4j])
        assert np.allclose(con_normal_closed_form(a, "maximal"), np.diag([0.9, 0.8]), atol=1e-12)
        assert np.allclose(con_normal_closed_form(a, "minimal"), np.diag([0.1, 0.2]), atol=1e-12)

    def test_imaginary_boundary_scalar(self):
        x = con_normal_closed_form(0.5j * np.eye(1), "maximal")
        assert x[0, 0].real == pytest.approx(0.5, abs=1e-12)

    def test_solves_equation(self, rng):
        a = np.diag(0.45 * np.exp(2j * np.pi * rng.uniform(size=3)) * rng.uniform(0.2, 1.0, size=3))
        for want in ("maximal", "minimal"):
            x = con_normal_closed_form(a, want)
            assert residual(x, ProblemInstance(a)) <= 1e-9

    def test_rejects_non_con_normal(self):
        with pytest.raises(NotConNormal):
            con_normal_closed_form(np.array([[0.0, 0.4], [0.0, 0.0]]), "maximal")

    def test_rejects_norm_above_half(self):
        with pytest.raises(NormExceedsHalf):
            con_normal_closed_form(0.6 * np.eye(2), "maximal")

    def test_rejects_singular_for_minimal(self):
        with pytest.raises(SingularCoefficient):
            con_normal_closed_form(np.diag([0.3, 0.0]), "minimal")

    def test_matches_iterative_solutions(self, rng):
        # diagonal-complex and rotated real-normal coefficients
        u = random_unitary(rng, 2).real
        u = u / np.linalg.norm(u, 2)  # orthogonal up to rounding
        cases = [
            np.diag([0.31, -0.22j]),
            u @ np.diag([0.4, -0.3]) @ u.T,
        ]
        for a in cases:
            p = ProblemInstance(a)
            assert np.allclose(
                con_normal_closed_form(a, "maximal"), solve_maximal(p).solution, atol=1e-8
            )
            assert np.allclose(
                con_normal_closed_form(a, "minimal"), solve_minimal(p).solution, atol=1e-8
            )


class TestCrossValidate:
    def test_small_norm_instances_solve(self, rng):
        for _ in range(3):
            a = random_solvable(rng, 2, max_norm=0.49)
            result = cross_validate(ProblemInstance(a))
            assert result.existence.verdict == "exists"
            assert result.solver_succeeded
            assert result.consistent

    def test_large_coefficient_fails_consistently(self):
        result = cross_validate(ProblemInstance(0.8 * np.eye(2)))
        assert result.existence.verdict == "not_exists"
        assert not result.solver_succeeded
        assert result.consistent
        assert "no-solution-evidence" in result.solver_error

    def test_undetermined_verdict_is_consistent(self):
        # nilpotent with ||A|| = 0.6: the necessary conditions hold, the norm bound fails
        # and the exact criterion needs an invertible A
        result = cross_validate(ProblemInstance(np.array([[0.0, 0.6], [0.0, 0.0]])))
        assert result.existence.verdict == "undetermined"
        assert result.existence.exact_invertible is None
        assert result.consistent
        assert result.note == "verdict undetermined; solver outcome is evidence, not proof"

    def test_example_instance(self):
        result = cross_validate(ProblemInstance(EX1_A))
        assert result.existence.verdict == "exists"
        assert result.solver_succeeded
        assert result.outcome.residual <= 1e-9
        assert result.consistent

    def test_q_instance_is_decided_on_its_unit_problem(self):
        # ||A|| = 0.6 has no solution for Q = I, but a_q has norm below 1/2 for this Q
        p = ProblemInstance(0.6 * np.eye(2), np.array([[2.0, 0.5j], [-0.5j, 3.0]]))
        assert check_existence(p.a).verdict == "not_exists"
        result = cross_validate(p)
        assert result.existence.verdict == check_existence(p.a_q).verdict == "exists"
        assert result.solver_succeeded and result.consistent
        assert residual(result.outcome.solution, p) <= p.residual_bound


@pytest.mark.parametrize("n", [4, 8, 16])
def test_rank_deficient_coefficient_is_singular(rng, n):
    # A*A squares the singular values, so an eigenvalue test on it resolves
    # sigma_min only down to about 1e-8 ||A|| and passes such A as invertible
    for _ in range(4):
        a = random_complex(rng, n, n - 1) @ random_complex(rng, n - 1, n)
        a *= 0.3 / np.linalg.norm(a, 2)
        assert check_existence(a).exact_invertible is None
        with pytest.raises(SingularCoefficient):
            solve_minimal(ProblemInstance(a))
        # the upper ladder inverts only its iterates, so it exists and lies above X+
        p = ProblemInstance(a)
        x_plus = solve_maximal(p).solution
        for rung in build_ladder(p, "upper", 2).matrices:
            assert np.linalg.eigvalsh(rung - x_plus)[0] >= -1e-12 * np.linalg.norm(x_plus, 2)


class TestSoundnessSweeps:
    def test_necessary_conditions_on_solved_instances(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 4))
            a = random_solvable(rng, n)
            solve_maximal(ProblemInstance(a))
            report = check_existence(a)
            for c in report.necessary:
                assert c.margin > -BAND, (c.name, c.margin)

    def test_sufficient_norm_bound_always_solves(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 4))
            a = random_solvable(rng, n, max_norm=0.499)
            out = solve_maximal(ProblemInstance(a))
            assert out.residual <= 1e-9

    def test_scalar_verdicts_match_roots(self):
        # |a| below one half solvable, above not
        for a_mag in (0.1, 0.3, 0.45):
            assert check_existence(a_mag * np.eye(1)).verdict == "exists"
            scalar_solutions(a_mag)
        for a_mag in (0.55, 0.7):
            assert check_existence(a_mag * np.eye(1)).verdict == "not_exists"
            with pytest.raises(ValueError):
                scalar_solutions(a_mag)


@pytest.mark.parametrize("n", [3, 8])
def test_exact_criterion_decides_just_outside_the_band(n):
    # omega(lozenge A) = 1/2 -+ 1e-6: decided by the one 1e-8 band, and the
    # solver agrees on both sides
    base = random_complex(np.random.default_rng(3000 + n), n)
    omega = numerical_radius_loop(lozenge(base))
    for target, verdict in ((0.5 - 1e-6, "exists"), (0.5 + 1e-6, "not_exists")):
        cv = cross_validate(ProblemInstance(base * (target / omega)))
        assert cv.existence.verdict == verdict
        assert cv.consistent, cv.note


@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=1, max_value=6),
    st.floats(min_value=0.05, max_value=1.2),
)
# the congruent twin's top eigenvalue curve has a dip between two maxima at its best sample
@example(seed=558, n=6, norm=0.5)
def test_unitary_congruence_keeps_verdict_and_margins(seed, n, norm):
    # lozenge(conj(U) A U*) = heart(U) lozenge(A) heart(U)^T, and every other
    # condition but the gram_sum pivot margin is a unitary invariant too
    gen = np.random.default_rng(seed)
    a = random_with_norm(gen, n, norm)
    u = random_unitary(gen, n)
    before = check_existence(a)
    after = check_existence(np.conj(u) @ a @ u.conj().T)
    assert after.verdict == before.verdict

    def checks(report):
        extra = [report.sufficient_norm_half] + [c for c in [report.exact_invertible] if c]
        return {c.name: c for c in report.necessary + extra}

    old, new = checks(before), checks(after)
    assert old.keys() == new.keys()
    for name, c in old.items():
        if name != "gram_sum":
            assert new[name].margin == pytest.approx(c.margin, abs=1e-12), name
        elif min(abs(c.margin), abs(new[name].margin)) > BAND:
            assert new[name].holds == c.holds
