import dataclasses
import json
import warnings
from itertools import islice

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conric.bounds import LadderBreakdown, build_ladder, closed_form_bounds, sandwich_report
from conric.conditions import check_existence
from conric.embedding import heart, heart_structure_drift, lozenge, unheart
from conric.kernel import (
    DimensionError,
    NonFiniteMatrixError,
    NotPositiveDefiniteError,
    Tolerances,
    _lapack,
    cholesky_solve,
    hermitian_norm_2,
    mat_inverse,
    numerical_radius,
    op_norm_2,
    pd_cholesky,
)
from conric.solver import (
    InternalInconsistency,
    MaxIterationsExceeded,
    NoSolutionEvidence,
    NotASolution,
    ProblemInstance,
    SingularCoefficient,
    SolveOutcome,
    _certified_rate,
    _cone_step,
    _doubling_iterates,
    _fixed_point_generic,
    _fixed_point_scalar,
    _step,
    _unit_maximal,
    extremality_check,
    normalize_q,
    residual,
    solve_maximal,
    solve_minimal,
    standard_solve_maximal,
)
from helpers import (
    EX1_A,
    EX1_X_PLUS,
    EX1_X_PLUS_STANDARD,
    ILL_Q,
    ILL_Q_A,
    SCALED_Q,
    SCALED_Q_A,
    classical_doubling_all_steps,
    conjugate_doubling_all_steps,
    direct_unit_maximal,
    doubling_all_steps,
    loop_iterates,
    near_critical,
    random_complex,
    random_non_normal,
    random_nonsingular_solvable,
    random_psd,
    random_solvable,
    random_unitary,
    random_well_conditioned_solvable,
    random_with_norm,
    reference_iterations,
    reference_step,
    scalar_solutions,
    singular_tilted_null,
)


class TestProblemInstance:
    def test_defaults_q_to_identity(self):
        p = ProblemInstance(EX1_A)
        assert np.array_equal(p.q, np.eye(2))

    def test_rejects_rectangular(self):
        with pytest.raises(Exception):
            ProblemInstance(np.ones((2, 3)))

    def test_rejects_indefinite_q(self):
        with pytest.raises(NotPositiveDefiniteError):
            ProblemInstance(EX1_A, np.diag([1.0, -1.0]))

    def test_rejects_mismatched_q(self):
        with pytest.raises(ValueError):
            ProblemInstance(EX1_A, np.eye(3))

    @pytest.mark.parametrize(
        "name, value", [("a", 0.1 * np.eye(2)), ("q", np.diag([5.0, 7.0])), ("tol", Tolerances(max_iter=5))]
    )
    def test_is_frozen(self, name, value):
        # q_factor and a_q are computed once, so the fields they come from cannot be reassigned
        p = ProblemInstance(EX1_A, np.diag([2.0, 3.0]))
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(p, name, value)
        if name != "tol":
            with pytest.raises(ValueError, match="read-only"):
                getattr(p, name)[...] = value
        assert solve_maximal(p).residual <= 1e-9

    def test_keeps_the_cholesky_factor_of_q(self, rng):
        q = random_psd(rng, 3) + np.eye(3)
        lower = ProblemInstance(np.zeros((3, 3)), q).q_factor
        assert np.array_equal(lower, np.tril(lower))
        assert np.all(lower.diagonal().real > 0.0)
        assert np.allclose(lower @ lower.conj().T, q, atol=1e-12 * np.linalg.norm(q))
        assert np.array_equal(ProblemInstance(EX1_A).q_factor, np.eye(2))

    def test_ill_conditioned_q_is_factored_not_inverted(self):
        # cond(Q) is about 3e24: its square root is singular to tolerance, its
        # Cholesky factor is exact, and the unit problem has no solution
        lower = np.array([[1.0, 0.0], [1.3e6, 1.0]])
        p = ProblemInstance(ILL_Q_A, ILL_Q)
        assert np.array_equal(p.q_factor, lower)
        expected = np.linalg.inv(lower) @ ILL_Q_A @ np.linalg.inv(lower).T
        assert np.allclose(p.a_q, expected, rtol=1e-12, atol=0.0)
        assert check_existence(p.a_q).verdict == "not_exists"
        with pytest.raises(NoSolutionEvidence):
            solve_maximal(p)


class TestNormalizeQ:
    def test_identity_q_is_noop(self):
        p = ProblemInstance(EX1_A)
        assert np.allclose(p.a_q, EX1_A)
        assert np.array_equal(normalize_q(p), p.a_q)

    def test_scalar_scaling(self):
        p = ProblemInstance(EX1_A, 4.0 * np.eye(2))
        assert np.allclose(p.a_q, EX1_A / 4.0, atol=1e-12)
        y = np.eye(2, dtype=np.complex128)
        assert np.allclose(p.back(y), 4.0 * np.eye(2), atol=1e-12)

    def test_zero_coefficient_solution_is_q(self, rng):
        q = random_psd(rng, 3) + np.eye(3)
        p = ProblemInstance(np.zeros((3, 3)), q)
        out = solve_maximal(p)
        assert np.allclose(out.solution, q, atol=1e-9 * np.linalg.norm(q))


class TestStandardSolve:
    def test_zero_coefficient_one_step(self):
        out = standard_solve_maximal(np.zeros((3, 3)))
        assert out.iterations == 1
        assert np.allclose(out.solution, np.eye(3))
        assert out.residual == 0.0

    def test_scalar_oracle(self):
        x_plus, _ = scalar_solutions(0.3)
        out = standard_solve_maximal(np.array([[0.3]]))
        assert out.solution[0, 0].real == pytest.approx(x_plus, abs=1e-10)
        assert x_plus == pytest.approx(0.9, abs=1e-14)
        assert len(out.trace) == out.iterations

    def test_embedded_coefficient_reproduces_example(self):
        out = standard_solve_maximal(lozenge(EX1_A))
        assert np.allclose(unheart(out.solution), EX1_X_PLUS, atol=1e-9)
        # the embedded fixed point is exactly the embedding of the solution
        assert np.allclose(out.solution, heart(EX1_X_PLUS), atol=1e-9)

    def test_no_solution_reported(self):
        with pytest.raises(NoSolutionEvidence) as info:
            standard_solve_maximal(np.array([[0.8]]))
        assert info.value.iterations >= 1

    def test_max_iterations_on_capped_boundary(self):
        # doubling reaches the boundary solution of [[0.5]] in 32 steps, so a cap of 31 ends the run
        tol = Tolerances(max_iter=31)
        with pytest.raises(MaxIterationsExceeded) as info:
            standard_solve_maximal(np.array([[0.5]]), tol)
        assert info.value.iterations == len(info.value.trace) == 31

    def test_monotone_envelope(self, rng):
        # iterates decrease from the identity and stay above the solution
        for n in (2, 3):
            b, tol = lozenge(random_solvable(rng, n)), Tolerances()
            iterates = loop_iterates(b, _fixed_point_generic(b, tol)[1])
            assert np.allclose(iterates[0], np.eye(2 * n))
            for w_prev, w_next in zip(iterates, iterates[1:]):
                gap = np.linalg.eigvalsh(w_prev - w_next)[0]
                assert gap >= -1e-12
                assert np.linalg.eigvalsh(np.eye(2 * n) - w_next)[0] >= -1e-12

    def test_trace_is_change_norms(self, rng):
        b, tol = lozenge(random_solvable(rng, 2)), Tolerances()
        _, iterations, trace, _ = _fixed_point_generic(b, tol)
        iterates = loop_iterates(b, 1)
        assert len(trace) == iterations
        first_change = op_norm_2(iterates[1] - iterates[0])
        assert trace[0] == pytest.approx(first_change, rel=1e-12)


class TestEngineDispatch:
    # the classical solver runs doubling at every size, and a fixed point loop only after a
    # breakdown; the scalar loop serves the conjugate n = 1 route

    @pytest.mark.parametrize("b", [0.1, 0.3, 0.49, 0.4999])
    def test_scalar_coefficient_runs_scalar_loop(self, b):
        # the scalar loop counts fixed point steps, the classical solver doubling steps
        x_plus, _ = scalar_solutions(b)
        y, iterations, _, _ = _fixed_point_scalar(np.array([[b]]), Tolerances())
        assert abs(y[0, 0] - x_plus) <= 1e-10
        assert iterations == reference_iterations(np.array([[b]]))
        out = standard_solve_maximal(np.array([[b]]))
        assert abs(out.solution[0, 0] - x_plus) <= 1e-10
        assert out.iterations == len(out.trace) == {0.1: 4, 0.3: 5, 0.49: 8, 0.4999: 11}[b]

    def test_scalar_coefficient_without_solution(self):
        with pytest.raises(NoSolutionEvidence):
            standard_solve_maximal(np.array([[0.6]]))

    @pytest.mark.parametrize("n", [2, 3])
    def test_doubling_serves_larger_coefficients_without_observer(self, rng, monkeypatch, n):
        import conric.solver as solver_mod

        calls = []
        cone_step = solver_mod._cone_step

        def counting(*args):
            calls.append(None)
            return cone_step(*args)

        monkeypatch.setattr(solver_mod, "_cone_step", counting)
        b = random_solvable(rng, n)
        standard_solve_maximal(b)
        standard_solve_maximal(np.array([[0.3 - 0.2j]]))
        solve_maximal(ProblemInstance(random_solvable(rng, 1)))
        assert calls == []
        iterations = _fixed_point_generic(b, Tolerances())[1]
        assert len(calls) == iterations


class TestClassicalDoubling:
    # the classical equation runs doubling, Q_j = W_(2^j - 1); it must reach the
    # generic loop's solution and refuse only where that loop refuses

    @pytest.mark.parametrize("n", range(1, 7))
    def test_step_j_is_loop_iterate(self, rng, monkeypatch, n):
        # numerical radius 0.49 keeps the loop from repeating, so a STOP_REL only a repeat meets runs it to 31
        import conric.kernel as kernel_mod

        b = random_complex(rng, n)
        b *= 0.49 / numerical_radius(b)
        monkeypatch.setattr(kernel_mod, "STOP_REL", 1e-300)
        tol = Tolerances(max_iter=31)
        with pytest.raises(MaxIterationsExceeded) as info:
            _fixed_point_generic(b, tol)
        assert len(info.value.trace) == 31
        iterates = loop_iterates(b, 31)
        assert len(iterates) == 32
        steps = _doubling_iterates(b, False)
        for j, (q, _) in zip(range(1, 6), steps):
            reference = classical_doubling_all_steps(b, j)
            assert np.abs(reference - iterates[2**j - 1]).max() <= 1e-13
            assert q.tobytes() == reference.tobytes()

    @staticmethod
    def draw(rng, family, n):
        """(B, its maximal solution in closed form, or None for a general B)."""
        if family == "general":
            return random_solvable(rng, n), None
        # a normal B = U diag(s) U* has numerical radius max |s| and X+ = U diag(x(|s|)) U*
        s = rng.uniform(0.05, 0.49, size=n) * rng.choice([-1.0, 1.0], size=n)
        if family == "near-boundary":
            s[0] = 0.5 - 1e-3
        x = (1.0 + np.sqrt(1.0 - 4.0 * s * s)) / 2.0
        if family == "diagonal":
            return np.diag(s * np.exp(2j * np.pi * rng.uniform(size=n))), np.diag(x)
        u = random_unitary(rng, n)
        return u @ np.diag(s) @ u.conj().T, u @ np.diag(x) @ u.conj().T

    @pytest.mark.parametrize("family", ["general", "hermitian", "diagonal", "near-boundary"])
    def test_solutions_agree_with_the_loop(self, rng, family):
        for n in range(1, 7):
            for _ in range(8):
                b, exact = self.draw(rng, family, n)
                plain = standard_solve_maximal(b)
                loop, iterations, _, _ = _fixed_point_generic(b, Tolerances())
                # near the boundary the loop's own stopping error, about stop_rel r^2 / (1 - r^2),
                # takes most of this bound; doubling stays within rounding of the closed form
                gap = np.linalg.norm(plain.solution - loop, 2)
                assert gap <= 1e-12 * np.linalg.norm(loop, 2)
                if exact is not None:
                    assert np.linalg.norm(plain.solution - exact, 2) <= 1e-13
                assert plain.residual <= Tolerances().residual_tol
                assert len(plain.trace) == plain.iterations < iterations

    def test_a_breakdown_keeps_a_certified_q(self, monkeypatch):
        # on the boundary Q_j - P_j tends to a singular matrix, so a coarse floor refuses it
        # before the change rule fires; Q_j passes the residual test, and no loop runs
        import conric.kernel as kernel_mod
        import conric.solver as solver_mod

        monkeypatch.setattr(solver_mod, "_fixed_point_generic", None)
        monkeypatch.setattr(kernel_mod, "PD_FLOOR", 1e-6)
        tol = Tolerances()
        out = standard_solve_maximal(np.diag([0.5, 0.1]), tol)
        assert out.trace[-1] > kernel_mod.STOP_REL and out.residual <= tol.residual_tol
        exact = np.diag([0.5, (1.0 + np.sqrt(0.96)) / 2.0])
        assert np.abs(out.solution - exact).max() <= 1e-6

    def test_a_vanished_b_ends_the_run(self):
        # b^2 = 0 makes B_1 = 0, so Q_1 = I - b* b is the fixed point and no step follows;
        # the run, not the cap, ends at step 1, so a cap of one step accepts Q_1 too
        for tol in (Tolerances(), Tolerances(max_iter=1)):
            out = standard_solve_maximal(np.array([[0.0, 0.3], [0.0, 0.0]]), tol)
            assert out.iterations == 1 and out.residual <= 1e-15
            assert np.abs(out.solution - np.diag([1.0, 0.91])).max() <= 1e-15

    @pytest.mark.parametrize("case", ["0.8 I", "past the boundary"])
    def test_both_routes_refuse(self, rng, case):
        if case == "0.8 I":
            b = 0.8 * np.eye(2)
        else:
            b = random_complex(rng, 3)
            b *= (0.5 + 1e-2) / numerical_radius(b)
        errors = []
        for solve in (standard_solve_maximal, _fixed_point_generic):
            with pytest.raises(NoSolutionEvidence) as info:
                solve(b.astype(np.complex128), Tolerances())
            errors.append(info.value)
        # a breakdown hands the coefficient to the loop, so the refusals are the same
        assert str(errors[0]) == str(errors[1])
        assert errors[0].iterations == errors[1].iterations
        assert errors[0].trace == errors[1].trace


class TestScalarRoute:
    # at n = 1 solve_maximal runs the scalar loop; the generic loop on the
    # lozenge of a_q must give the same answer

    @staticmethod
    def generic_route(p):
        """The generic loop on lozenge(a_q) at the instance's tolerances, with its rate certificate."""
        b = lozenge(p.a_q)
        w, iterations, trace, res = _fixed_point_generic(b, p.tol)
        certificate = op_norm_2(cholesky_solve(pd_cholesky(w), b))
        return SolveOutcome(w, "maximal", iterations, res, trace, certificate)

    @pytest.mark.parametrize("with_q", [False, True])
    @pytest.mark.parametrize("modulus", [0.0, 0.1, 0.3, 0.45, 0.49, 0.499, 0.5 - 1e-4])
    def test_routes_agree(self, rng, modulus, with_q):
        # with Q = [[q]] the unit-Q coefficient is a / q and X = q y
        q = rng.uniform(0.5, 4.0) if with_q else 1.0
        a = q * modulus * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        p = ProblemInstance(np.array([[a]]), np.array([[q]]) if with_q else None)
        scalar, generic = solve_maximal(p), self.generic_route(p)
        assert scalar.iterations == generic.iterations
        expected = q * unheart(generic.solution)
        gap = np.abs(scalar.solution - expected).max()
        assert gap <= 1e-14 * np.abs(expected).max()
        assert scalar.rate_certificate == pytest.approx(generic.rate_certificate, rel=1e-12)
        assert len(scalar.trace) == scalar.iterations

    def test_boundary_runs_to_the_cap_on_both_routes(self):
        tol = Tolerances(max_iter=2000)
        p = ProblemInstance(np.array([[0.5j]]), None, tol)
        for solve in (solve_maximal, self.generic_route):
            with pytest.raises(MaxIterationsExceeded) as info:
                solve(p)
            assert info.value.iterations == tol.max_iter
            assert len(info.value.trace) == tol.max_iter

    @pytest.mark.parametrize("modulus", [0.5 + 1e-3, 0.6, 2.0])
    def test_no_solution_at_the_same_iterate(self, rng, modulus):
        a = modulus * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        p = ProblemInstance(np.array([[a]]))
        errors = []
        for solve in (solve_maximal, self.generic_route):
            with pytest.raises(NoSolutionEvidence) as info:
                solve(p)
            errors.append(info.value)
        assert errors[0].iterations == errors[1].iterations
        assert len(errors[0].trace) == len(errors[1].trace) == errors[0].iterations
        assert str(errors[0]) == str(errors[1])


class TestFailureAgreement:
    # every engine refuses through _left_the_cone, and a doubling breakdown hands the
    # coefficient to the generic loop, so every route reports the loop's iterate and pivot margin

    @staticmethod
    def refusals(monkeypatch, b, routes):
        """(iterate, margin) of each route's refusal, in order."""
        import conric.solver as solver_mod

        seen = []
        left_the_cone = solver_mod._left_the_cone

        def recording(iterate, margin, trace):
            seen.append((iterate, margin))
            return left_the_cone(iterate, margin, trace)

        monkeypatch.setattr(solver_mod, "_left_the_cone", recording)
        for route in routes:
            with pytest.raises(NoSolutionEvidence):
                route(b.astype(np.complex128), Tolerances())
        return seen

    def test_scalar_loop_matches_generic_loop(self, monkeypatch):
        routes = _fixed_point_scalar, _fixed_point_generic
        (k0, m0), (k1, m1) = self.refusals(monkeypatch, np.array([[0.6]]), routes)
        assert k0 == k1 == 4
        assert m0 == pytest.approx(m1, rel=1e-12)

    # the first pivot fails, the second fails, and a non-diagonal coefficient
    @pytest.mark.parametrize("diagonal", [(0.6, 0.1), (0.1, 0.6), None])
    def test_twin_matches_generic_loop(self, rng, monkeypatch, diagonal):
        b = random_with_norm(rng, 2, 0.8) if diagonal is None else np.diag(diagonal)
        (k0, m0), (k1, m1) = self.refusals(monkeypatch, b, (standard_solve_maximal, _fixed_point_generic))
        assert k0 == k1
        assert m0 < 0.0
        assert m0 == pytest.approx(m1, rel=1e-12)


class TestUnitaryCongruence:
    # A -> conj(U) A U*, Q -> U Q U* maps every solution X to U X U*
    @pytest.mark.parametrize("with_q", [False, True])
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("n", range(1, 7))
    def test_solutions_follow_the_congruence(self, n, seed, with_q):
        gen = np.random.default_rng(seed)
        a = random_nonsingular_solvable(gen, n)
        q = random_psd(gen, n) + np.eye(n) if with_q else np.eye(n)
        u = random_unitary(gen, n)
        moved = ProblemInstance(np.conj(u) @ a @ u.conj().T, u @ q @ u.conj().T)
        for solve in (solve_maximal, solve_minimal):
            x = solve(ProblemInstance(a, q)).solution
            expected = u @ x @ u.conj().T
            gap = np.linalg.norm(solve(moved).solution - expected, 2)
            assert gap <= 1e-12 * np.linalg.norm(x, 2), solve.__name__


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.floats(min_value=1.0, max_value=10.0),
)
def test_solutions_follow_q_congruence(n, seed, cond):
    # (A, Q) -> (P^T A P, P* Q P) maps every solution X to P* X P; cond(P) = cond.
    # n = 2..5 also runs the strongly non-normal family
    gen = np.random.default_rng(seed)
    random_a = random_nonsingular_solvable(gen, n)
    q = random_psd(gen, n) + np.eye(n)
    p = random_unitary(gen, n) @ np.diag(np.geomspace(1.0, cond, n)) @ random_unitary(gen, n)
    non_normal = [random_non_normal(gen, n)] if 2 <= n <= 5 else []
    for a in [random_a, *non_normal]:
        moved = ProblemInstance(p.T @ a @ p, p.conj().T @ q @ p)
        for solve in (solve_maximal, solve_minimal):
            expected = p.conj().T @ solve(ProblemInstance(a, q)).solution @ p
            gap = np.linalg.norm(solve(moved).solution - expected, 2)
            assert gap <= 1e-10 * np.linalg.norm(expected, 2), solve.__name__


@pytest.mark.parametrize("with_q", [False, True])
@pytest.mark.parametrize("n", range(1, 7))
def test_solutions_and_ladders_scale_with_a_and_q(rng, n, with_q):
    # (A, Q) -> (tA, tQ) leaves a_q unchanged up to rounding and scales every solution and rung by t;
    # n = 2..5 also runs the strongly non-normal family
    random_a = random_well_conditioned_solvable(rng, n)
    q = random_psd(rng, n) + np.eye(n) if with_q else None
    non_normal = [random_non_normal(rng, n)] if 2 <= n <= 5 else []

    def gap(moved, expected):
        return np.linalg.norm(moved - expected, 2) / np.linalg.norm(expected, 2)

    for a in [random_a, *non_normal]:
        base = ProblemInstance(a, q)
        for t in (0.25, 0.5, 2.0, 4.0, 1e6):
            scaled = ProblemInstance(t * a, t * base.q)
            for solve, kind in ((solve_maximal, "maximal"), (solve_minimal, "minimal")):
                outcome, moved = solve(base), solve(scaled)
                assert moved.iterations == outcome.iterations, (t, kind)
                assert gap(moved.solution, t * outcome.solution) <= 1e-13, (t, kind)
                assert extremality_check(moved.solution, scaled, kind)[0], (t, kind)
            for side in ("lower", "upper"):
                ladder = build_ladder(base, side, 6)
                moved = build_ladder(scaled, side, 6)
                assert moved.depth == ladder.depth == 6, (t, side)
                for rung, moved_rung in zip(ladder.matrices, moved.matrices):
                    assert gap(moved_rung, t * rung) <= 1e-13, (t, side)


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**31 - 1))
def test_minimal_is_the_dual_maximal(n, seed):
    # X-(A) = I - conj(Y+(A*)): solve_minimal takes X- as conj(A) Y+^-1 A^T instead
    a = random_well_conditioned_solvable(np.random.default_rng(seed), n)
    x_minus = solve_minimal(ProblemInstance(a)).solution
    expected = np.eye(n) - np.conj(solve_maximal(ProblemInstance(a.conj().T)).solution)
    gap = np.linalg.norm(x_minus - expected, 2)
    assert gap <= 1e-11 * np.linalg.norm(expected, 2)


def test_minimal_solve_normalizes_once_and_skips_the_public_maximal(monkeypatch):
    import conric.solver as solver_mod

    normalized = []
    normalize = solver_mod.normalize_q

    def counting(p):
        normalized.append(p)
        return normalize(p)

    def public_maximal(p):
        raise AssertionError("solve_minimal went through solve_maximal")

    monkeypatch.setattr(solver_mod, "normalize_q", counting)
    monkeypatch.setattr(solver_mod, "solve_maximal", public_maximal)
    q = np.diag([2.0, 3.0])
    out = solve_minimal(ProblemInstance(EX1_A, q))
    assert len(normalized) == 1
    assert out.kind == "minimal"


class TestSolveMaximal:
    def test_zero_coefficient(self):
        out = solve_maximal(ProblemInstance(np.zeros((2, 2))))
        assert np.allclose(out.solution, np.eye(2))

    def test_example_instance(self):
        out = solve_maximal(ProblemInstance(EX1_A))
        assert np.abs(out.solution - EX1_X_PLUS).max() <= 1e-8
        assert out.residual <= 1e-9
        assert out.rate_certificate == pytest.approx(0.614, abs=1e-3)
        assert out.linear_rate_guaranteed

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_rate_certificate_is_unit_solution_norm(self, rng, n):
        # ||X_unit^-1 conj(a_q)||_2 with a_q = conj(q^-1/2) A q^-1/2 and
        # X_unit = q^-1/2 X q^-1/2, all from numpy
        a = random_solvable(rng, n)
        q = random_psd(rng, n) + np.eye(n)
        out = solve_maximal(ProblemInstance(a, q))
        w, v = np.linalg.eigh(q)
        root_inv = (v / np.sqrt(w)) @ v.conj().T
        a_q = np.conj(root_inv) @ a @ root_inv
        x_unit = root_inv @ out.solution @ root_inv
        expected = np.linalg.norm(np.linalg.solve(x_unit, np.conj(a_q)), 2)
        assert out.rate_certificate == pytest.approx(expected, rel=1e-12)
        assert out.linear_rate_guaranteed == (expected < 1.0)
        # the minimal solve iterates on the dual Y = I - conj(X-_unit): ||(I - X-_unit)^-1 a_q*||
        minimal = solve_minimal(ProblemInstance(a, q))
        x_minus_unit = root_inv @ minimal.solution @ root_inv
        expected = np.linalg.norm(np.linalg.solve(np.eye(n) - x_minus_unit, a_q.conj().T), 2)
        assert minimal.rate_certificate == pytest.approx(expected, rel=1e-12)
        assert minimal.linear_rate_guaranteed == (expected < 1.0)

    @pytest.mark.parametrize("with_q", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_the_conjugate_solves_bypass_the_classical_solver(self, rng, monkeypatch, n, with_q):
        # both solves run the loops themselves and take the certificate from a factor they hold
        import conric.solver as solver_mod

        def refused(*args, **kwargs):
            raise AssertionError("a conjugate solve went through the classical solver")

        monkeypatch.setattr(solver_mod, "standard_solve_maximal", refused)
        monkeypatch.setattr(solver_mod, "pd_cholesky", refused)
        a = random_nonsingular_solvable(rng, n)
        p = ProblemInstance(a, random_psd(rng, n) + np.eye(n) if with_q else None)
        for solve in (solve_maximal, solve_minimal):
            out = solve(p)
            assert out.residual <= p.tol.residual_tol
            assert out.iterations == len(out.trace) > 0

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_extremality_value_is_bounded_by_the_certificate(self, rng, n):
        # rho(M conj(M)) <= ||M||^2 for M = conj(Y)^-1 a_q, the operator both read
        p = ProblemInstance(random_solvable(rng, n), random_psd(rng, n) + np.eye(n))
        out = solve_maximal(p)
        ok, value = extremality_check(out.solution, p, "maximal")
        assert ok
        assert value <= out.rate_certificate**2 * (1.0 + 1e-12)

    def test_diagonal_oracle(self):
        out = solve_maximal(ProblemInstance(np.diag([0.3, 0.4j])))
        assert np.allclose(out.solution, np.diag([0.9, 0.8]), atol=1e-9)

    def test_real_coefficient_gives_real_solution(self, rng):
        a = random_solvable(rng, 3).real.astype(np.complex128)
        out = solve_maximal(ProblemInstance(a))
        assert np.abs(out.solution.imag).max() <= 1e-10

    def test_real_nonsingular_coefficient_gives_real_minimal(self, rng):
        a = random_nonsingular_solvable(rng, 3).real.astype(np.complex128)
        out = solve_minimal(ProblemInstance(a))
        assert np.abs(out.solution.imag).max() <= 1e-10

    def test_embedded_iterates_stay_heart_structured(self, rng):
        b, tol = lozenge(random_solvable(rng, 3)), Tolerances()
        for w in loop_iterates(b, _fixed_point_generic(b, tol)[1]):
            assert heart_structure_drift(w) <= 1e-10

    def test_agrees_with_direct_route(self, rng):
        a = random_solvable(rng, 3)
        tol = Tolerances()
        out = solve_maximal(ProblemInstance(a, None, tol))
        y = direct_unit_maximal(a)
        assert op_norm_2(out.solution - y) <= 1e-8

    def test_no_solution_for_large_coefficient(self):
        with pytest.raises(NoSolutionEvidence):
            solve_maximal(ProblemInstance(0.8 * np.eye(2)))

    def test_general_q(self, rng):
        a = random_solvable(rng, 2)
        q = random_psd(rng, 2) + np.eye(2)
        p = ProblemInstance(a, q)
        out = solve_maximal(p)
        assert out.residual <= p.tol.residual_tol
        assert residual(out.solution, p) <= p.tol.residual_tol


class TestSolveMinimal:
    def test_scalar_oracle(self):
        out = solve_minimal(ProblemInstance(np.array([[0.3]])))
        _, x_minus = scalar_solutions(0.3)
        assert out.solution[0, 0].real == pytest.approx(x_minus, abs=1e-10)
        assert x_minus == pytest.approx(0.1, abs=1e-14)

    def test_diagonal_oracle(self):
        out = solve_minimal(ProblemInstance(np.diag([0.3, 0.4j])))
        assert np.allclose(out.solution, np.diag([0.1, 0.2]), atol=1e-9)

    def test_boundary_collapses_to_half(self, monkeypatch):
        # at the norm boundary the iteration is sublinear, so relax the
        # change threshold; the residual certificate still holds at 1e-9
        import conric.kernel as kernel_mod

        monkeypatch.setattr(kernel_mod, "STOP_REL", 1e-9)
        tol = Tolerances(max_iter=200_000)
        p = ProblemInstance(0.5 * np.eye(1), None, tol)
        lo = solve_minimal(p)
        hi = solve_maximal(p)
        assert abs(lo.solution[0, 0] - 0.5) <= 1e-4
        assert abs(hi.solution[0, 0] - 0.5) <= 1e-4
        assert lo.residual <= 1e-9 and hi.residual <= 1e-9

    def test_refuses_singular(self):
        with pytest.raises(SingularCoefficient):
            solve_minimal(ProblemInstance(np.diag([0.3, 0.0])))

    def test_solution_below_the_pivot_floor_is_a_singular_coefficient(self):
        # X- = diag(0.1, 9e-16) exists (the verdict is "exists" and X+ solves),
        # but its pivot margin 1.8e-14 is below the floor
        p = ProblemInstance(np.diag([0.3, 3e-8]))
        assert check_existence(p.a).verdict == "exists"
        solve_maximal(p)
        with pytest.raises(SingularCoefficient, match=r"pivot margin 1\.800e-14"):
            solve_minimal(p)

    def test_singular_with_tilted_null_vector(self):
        # the last Cholesky pivot of Z* Z clears the floor on about half of these draws;
        # the triangular factor of Z refuses every one
        gen = np.random.default_rng(31)
        for _ in range(40):
            with pytest.raises(SingularCoefficient, match="minimal solution is singular to the pivot floor"):
                solve_minimal(ProblemInstance(singular_tilted_null(gen)))

    def test_duality_and_order(self, rng):
        for _ in range(5):
            a = random_nonsingular_solvable(rng, 3)
            p = ProblemInstance(a)
            lo = solve_minimal(p)
            hi = solve_maximal(p)
            assert lo.residual <= p.tol.residual_tol
            assert np.linalg.eigvalsh(hi.solution - lo.solution)[0] >= -1e-9

    def test_general_q(self, rng):
        a = random_nonsingular_solvable(rng, 2)
        q = random_psd(rng, 2) + np.eye(2)
        p = ProblemInstance(a, q)
        out = solve_minimal(p)
        assert residual(out.solution, p) <= p.tol.residual_tol

    @pytest.mark.parametrize("n", [8, 16])
    def test_small_ill_conditioned_solution(self, rng, n):
        # A = U diag(s) U^T has X- = conj(U) diag(2 s^2 / (1 + sqrt(1 - 4 s^2))) U^T;
        # its smallest eigenvalue is about 1e-10, far below rounding of I - conj(Y+)
        u = random_unitary(rng, n)
        s = np.geomspace(0.06, 1e-5, n)
        d = 2.0 * s**2 / (1.0 + np.sqrt(1.0 - 4.0 * s**2))
        expected = np.conj(u) @ np.diag(d) @ u.T
        out = solve_minimal(ProblemInstance(u @ np.diag(s) @ u.T))
        assert np.linalg.norm(out.solution - expected) <= 1e-13 * np.linalg.norm(expected)
        assert out.residual <= 1e-9


class TestRefusals:
    # the back-map checks and the doubling route's cap, each reached on purpose

    @staticmethod
    def shift_unit_solution(monkeypatch, shift):
        import conric.solver as solver_mod

        unit_maximal = solver_mod._unit_maximal

        def shifted(a_q, tol):
            y, iterations, trace = unit_maximal(a_q, tol)
            return y + shift * np.eye(len(a_q)), iterations, trace

        monkeypatch.setattr(solver_mod, "_unit_maximal", shifted)

    @pytest.mark.parametrize(
        "solve, message",
        [(solve_maximal, "back-mapped residual "), (solve_minimal, "dual-route residual ")],
    )
    def test_a_wrong_unit_solution_fails_the_back_mapped_residual(self, monkeypatch, solve, message):
        self.shift_unit_solution(monkeypatch, 1e-6)
        with pytest.raises(InternalInconsistency) as info:
            solve(ProblemInstance(EX1_A, np.diag([2.0, 3.0])))
        assert str(info.value).startswith(message)

    def test_a_dual_solution_below_the_floor_is_internal(self, monkeypatch):
        self.shift_unit_solution(monkeypatch, -2.0)
        with pytest.raises(InternalInconsistency) as info:
            solve_minimal(ProblemInstance(EX1_A, np.diag([2.0, 3.0])))
        assert str(info.value).startswith("dual solution fails the pivot floor")

    @pytest.mark.parametrize("solve, kind", [(solve_maximal, "maximal"), (solve_minimal, "minimal")])
    def test_an_ill_scaled_q_is_decided_in_the_unit_problem(self, solve, kind):
        p = ProblemInstance(SCALED_Q_A, SCALED_Q)
        x = solve(p).solution
        assert residual(x, p) <= 1e-9
        assert extremality_check(x, p, kind)[0]

    @pytest.mark.parametrize("solve, count", [(solve_maximal, 1), (solve_minimal, 2)])
    def test_the_back_mapped_solution_is_never_factored(self, monkeypatch, solve, count):
        # after the engine, the maximal solve factors its unit solution, the minimal
        # solve the dual solution and the unit minimal solution
        import conric.solver as solver_mod

        factored = []
        cholesky = _lapack.cholesky_lo
        monkeypatch.setattr(
            _lapack, "cholesky_lo", lambda h, **kw: factored.append(np.array(h)) or cholesky(h, **kw)
        )
        unit_maximal = solver_mod._unit_maximal
        monkeypatch.setattr(
            solver_mod, "_unit_maximal", lambda a_q, tol: (unit_maximal(a_q, tol), factored.clear())[0]
        )
        x = solve(ProblemInstance(EX1_A, np.array([[2.0, 0.5j], [-0.5j, 3.0]]))).solution
        assert len(factored) == count
        assert not any(np.array_equal(h, x) for h in factored)

    @pytest.mark.parametrize("n", [1, 3])
    def test_a_huge_coefficient_leaves_the_cone_before_its_gram(self, n):
        # a part beyond 2^64 gives ||C|| > 1, so iterate 1 leaves the cone; C* C, which may overflow, is not formed
        a = 1e200 * np.eye(n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for solve in (solve_maximal, solve_minimal):
                with pytest.raises(NoSolutionEvidence) as info:
                    solve(ProblemInstance(a))
                message = "iterate 1 lost positive definiteness (||C|| >= 1.000e+200 > 1)"
                assert (str(info.value), info.value.iterations, len(info.value.trace)) == (message, 1, 0)
            for side in ("lower", "upper"):
                with pytest.raises(LadderBreakdown) as info:
                    build_ladder(ProblemInstance(a), side)
                assert (info.value.side, info.value.rung) == (side, 2)
            # at 2^64 the Gram cannot overflow, and the loop itself refuses iterate 1
            with pytest.raises(NoSolutionEvidence, match=r"^iterate 1 lost positive definiteness \(pivot margin "):
                solve_maximal(ProblemInstance(2.0**64 * np.eye(n)))

    @pytest.mark.parametrize("scale", [1e200, 1e300])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_the_classical_solver_refuses_a_huge_coefficient_at_once(self, monkeypatch, n, scale):
        # ||B|| > 1, so iterate 1 leaves the cone; neither doubling nor the loop forms B* B, which overflows
        import conric.solver as solver_mod

        def refused(*args):
            raise AssertionError("a huge coefficient reached doubling or the loop")

        monkeypatch.setattr(solver_mod, "_doubling_iterates", refused)
        monkeypatch.setattr(solver_mod, "_fixed_point_generic", refused)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NoSolutionEvidence) as info:
                standard_solve_maximal(scale * np.eye(n))
        message = f"iterate 1 lost positive definiteness (||C|| >= {scale:.3e} > 1)"
        assert (str(info.value), info.value.iterations, len(info.value.trace)) == (message, 1, 0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_doubling_converges_on_the_boundary(self, n):
        # 0.5 I lies on the classical existence boundary, where doubling still halves the error;
        # every size runs the same doubling, so every size takes the same steps
        out = standard_solve_maximal(0.5 * np.eye(n))
        assert np.abs(out.solution - 0.5 * np.eye(n)).max() <= 1e-8
        assert out.iterations == 32

    def test_doubling_stops_at_the_cap(self):
        with pytest.raises(MaxIterationsExceeded) as info:
            standard_solve_maximal(0.5 * np.eye(2), Tolerances(max_iter=3))
        assert info.value.iterations == 3
        assert len(info.value.trace) == 3


def test_no_route_inverts_or_roots_q(monkeypatch, tmp_path, capsys):
    # Q is tested, factored and normalised once, by ProblemInstance; no route
    # calls mat_inverse or psd_sqrt, takes the singular values of Q or
    # normalises Q again
    import conric
    from conric import cli

    def refused(*args, **kwargs):
        raise AssertionError("mat_inverse or psd_sqrt called")

    tested = []
    nonsingular = conric.kernel._nonsingular

    def recording(a):
        tested.append(np.array(a))
        return nonsingular(a)

    for module in (conric, conric.kernel, conric.solver, conric.bounds, conric.conditions, cli):
        for name, stub in (("mat_inverse", refused), ("psd_sqrt", refused), ("_nonsingular", recording)):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, stub)
    normalized = []
    normalize = conric.solver.normalize_q
    monkeypatch.setattr(conric.solver, "normalize_q", lambda p: normalized.append(p) or normalize(p))
    q = np.array([[2.0, 0.5j], [-0.5j, 3.0]])
    p = ProblemInstance(EX1_A, q)
    x_plus, x_minus = solve_maximal(p).solution, solve_minimal(p).solution
    assert extremality_check(x_plus, p, "maximal")[0]
    assert extremality_check(x_minus, p, "minimal")[0]
    lower, upper = build_ladder(p, "lower", 3), build_ladder(p, "upper", 3)
    assert lower.depth == upper.depth == 3
    assert len(normalized) == 1 and normalized[0] is p
    sandwich_report(p, lower, upper)
    path = tmp_path / "withq.json"
    doc = {"n": 2, "re": EX1_A.real.tolist(), "im": EX1_A.imag.tolist()}
    path.write_text(json.dumps({**doc, "q_re": q.real.tolist(), "q_im": q.imag.tolist()}))
    for command in (["solve", "--minimal"], ["check"], ["bounds"], ["trace"]):
        normalized.clear()
        assert cli.main([*command, str(path), "--no-meta"]) == 0
        assert len(normalized) == 1, command
    capsys.readouterr()
    assert tested and not any(np.array_equal(a, q) for a in tested)


class TestResidual:
    def test_example_solution(self):
        assert residual(EX1_X_PLUS, ProblemInstance(EX1_A)) <= 1e-9

    def test_zero_coefficient_identity(self):
        assert residual(np.eye(2), ProblemInstance(np.zeros((2, 2)))) == 0.0

    def test_boundary_scalar(self):
        p = ProblemInstance(0.5 * np.eye(1))
        assert residual(0.5 * np.eye(1), p) <= 1e-15

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            residual(np.diag([1.0, -1.0]), ProblemInstance(EX1_A))

    def test_rejects_a_solution_of_another_shape(self):
        with pytest.raises(DimensionError, match=r"\(3, 3\) does not match coefficient shape \(2, 2\)"):
            residual(np.eye(3), ProblemInstance(EX1_A))

    @pytest.mark.parametrize("t", [1e-200, 1e-100, 1e100, 1e200])
    def test_scales_with_x_a_and_q(self, t):
        # the defect of (tZ, tA, tQ) is t times that of (Z, A, Q), and its norm neither overflows nor underflows
        q = np.array([[2.0, 0.5j], [-0.5j, 3.0]])
        z = 0.5 * solve_maximal(ProblemInstance(EX1_A, q)).solution
        expected = t * residual(z, ProblemInstance(EX1_A, q))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            moved = residual(t * z, ProblemInstance(t * EX1_A, t * q))
        assert abs(moved - expected) <= 1e-12 * expected

    def test_a_huge_non_solution(self):
        assert residual(1e160 * np.eye(2), ProblemInstance(0.3 * np.eye(2))) == pytest.approx(1e160, rel=1e-15)


class TestExtremality:
    def test_example_maximal(self):
        ok, value = extremality_check(EX1_X_PLUS, ProblemInstance(EX1_A), "maximal")
        assert ok
        assert value <= 1.0 + 1e-8

    def test_scalar_maximal(self):
        p = ProblemInstance(np.array([[0.3]]))
        ok, value = extremality_check(0.9 * np.eye(1), p, "maximal")
        assert ok
        assert value == pytest.approx(1.0 / 9.0, abs=1e-6)

    def test_scalar_minimal(self):
        p = ProblemInstance(np.array([[0.3]]))
        ok, value = extremality_check(0.1 * np.eye(1), p, "minimal")
        assert ok
        assert value == pytest.approx(9.0, rel=1e-5)

    def test_rejects_non_solution(self):
        with pytest.raises(NotASolution):
            extremality_check(np.eye(2), ProblemInstance(EX1_A), "maximal")

    @pytest.mark.parametrize("t", [1.0, 1e100, 1e200])
    def test_rejects_a_scaled_non_solution(self, t):
        # below t = 1 the residual bound max(1, ||Q||) residual_tol is absolute, and tZ can pass it
        q = np.array([[2.0, 0.5j], [-0.5j, 3.0]])
        z = 0.5 * solve_maximal(ProblemInstance(EX1_A, q)).solution
        with pytest.raises(NotASolution):
            extremality_check(t * z, ProblemInstance(t * EX1_A, t * q), "maximal")

    def test_rejects_a_huge_non_solution(self):
        with pytest.raises(NotASolution, match="residual 1.000e"):
            extremality_check(1e160 * np.eye(2), ProblemInstance(0.3 * np.eye(2)), "maximal")

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            extremality_check(EX1_X_PLUS, ProblemInstance(EX1_A), "largest")

    def test_rejects_a_solution_of_another_shape(self):
        with pytest.raises(DimensionError, match=r"\(3, 3\) does not match coefficient shape \(2, 2\)"):
            extremality_check(np.eye(3), ProblemInstance(EX1_A), "maximal")

    @pytest.mark.parametrize("kind", ["maximal", "minimal"])
    def test_factors_the_solution_once(self, monkeypatch, kind):
        # the residual and the extremality test share one Cholesky factor of x's unit-Q image
        import conric.solver as solver_mod

        p = ProblemInstance(EX1_A, np.array([[2.0, 0.5j], [-0.5j, 3.0]]))
        x = (solve_maximal(p) if kind == "maximal" else solve_minimal(p)).solution
        factored = []
        cholesky_lower = solver_mod._cholesky_lower
        monkeypatch.setattr(
            solver_mod, "_cholesky_lower", lambda h: factored.append(np.array(h)) or cholesky_lower(h)
        )
        assert extremality_check(x, p, kind)[0]
        lower = p.q_factor
        y = np.linalg.solve(lower, np.linalg.solve(lower, x).conj().T).conj().T
        assert len(factored) == 1 and np.allclose(factored[0], y, rtol=0.0, atol=1e-14)


class TestStandardContrast:
    def test_solutions_differ_between_equations(self):
        # the two equations share the coefficient yet have distant solutions
        out = solve_maximal(ProblemInstance(EX1_A))
        assert op_norm_2(out.solution - EX1_X_PLUS_STANDARD) > 0.05

    def test_linear_rate_bound_on_tail(self):
        out = solve_maximal(ProblemInstance(EX1_A))
        mu = out.rate_certificate**2
        start = max(1, len(out.trace) // 4)
        ratios = [
            out.trace[i + 1] / out.trace[i]
            for i in range(start, len(out.trace) - 1)
            if out.trace[i] > 0.0
        ]
        assert ratios
        assert max(ratios) <= mu + 0.05

    def test_trace_decreases(self):
        out = solve_maximal(ProblemInstance(EX1_A))
        assert all(b < a for a, b in zip(out.trace, out.trace[1:]))


def test_internal_inconsistency_is_exposed(monkeypatch):
    # an engine that returns the minimal embedded solution still passes the
    # residual check; only the maximality certificate can tell it is not maximal
    import conric.solver as solver_mod

    loop = solver_mod._fixed_point_generic

    def minimal_engine(b, tol):
        # W- = I - Y+ with Y+ the maximal solution of Y + B Y^-1 B^T = I
        dual, iterations, trace, res = loop(b.T, tol)
        return np.eye(b.shape[0], dtype=np.complex128) - dual, iterations, trace, res

    monkeypatch.setattr(solver_mod, "_fixed_point_generic", minimal_engine)
    with pytest.raises(InternalInconsistency, match=r"^unit solution is not maximal: rho\(M conj\(M\)\) = "):
        solve_maximal(ProblemInstance(EX1_A))


def sabotage_engine(monkeypatch, broken):
    """Make the loops return the minimal solution of their equation, or a NaN iterate."""
    import conric.solver as solver_mod

    for name in ("_fixed_point_scalar", "_fixed_point_generic"):
        loop = getattr(solver_mod, name)

        def engine(coeff, tol, loop=loop):
            if broken == "nan":
                return (np.full(coeff.shape, np.nan, dtype=np.complex128), *loop(coeff, tol)[1:])
            # the dual equation of W + C* W^-1 C = I has coefficient C^T, and W- = I - its maximal solution
            dual, *rest = loop(coeff.T, tol)
            return (np.eye(coeff.shape[0], dtype=np.complex128) - dual, *rest)

        monkeypatch.setattr(solver_mod, name, engine)


@pytest.mark.parametrize("solve, name", [(solve_maximal, "unit"), (solve_minimal, "dual")])
@pytest.mark.parametrize("a", [np.array([[0.3 + 0.1j]]), EX1_A], ids=["n=1", "n=2"])
def test_a_minimal_engine_is_exposed(monkeypatch, a, solve, name):
    sabotage_engine(monkeypatch, "minimal")
    with pytest.raises(InternalInconsistency, match=rf"^{name} solution is not maximal: rho\(M conj\(M\)\) = "):
        solve(ProblemInstance(a))


@pytest.mark.parametrize("solve", [solve_maximal, solve_minimal])
@pytest.mark.parametrize("a", [np.array([[0.3 + 0.1j]]), EX1_A], ids=["n=1", "n=2"])
def test_a_nan_iterate_is_exposed(monkeypatch, a, solve):
    # at n = 1 the pivot floor refuses the NaN unit solution with margin nan, an internal
    # inconsistency and never an input error; at n = 2 unheart refuses the NaN lozenge first
    sabotage_engine(monkeypatch, "nan")
    if a.shape[0] == 1:
        which = "unit" if solve is solve_maximal else "dual"
        expected = InternalInconsistency, rf"^{which} solution fails the pivot floor \(pivot margin nan\)$"
    else:
        expected = NonFiniteMatrixError, "^matrix entries must be finite$"
    with pytest.raises(expected[0], match=expected[1]):
        solve(ProblemInstance(a))


def test_a_nan_certificate_is_refused(monkeypatch):
    # r < 1 is the test, so a NaN r reaches the radius branch, which refuses any non-finite r
    import conric.solver as solver_mod

    monkeypatch.setattr(solver_mod, "op_norm_2", lambda m: np.nan)
    with pytest.raises(InternalInconsistency, match=r"rho\(M conj\(M\)\) = nan"):
        _certified_rate(np.eye(2, dtype=np.complex128), EX1_A, "unit solution")


class TestMaximalityCertificate:
    # rho(M conj(M)) <= r^2 for the rate certificate r = ||M||, so r < 1 certifies a maximal
    # solution; strongly non-normal A near omega = 1/2 reach r >= 1, where the radius decides

    @staticmethod
    def non_normal(rng, n):
        """Upper-triangular A with diagonal moduli in [0.1, 0.25], scaled to omega(lozenge A) in [0.47, 0.499]."""
        d = rng.uniform(0.1, 0.25, n) * np.exp(2j * np.pi * rng.uniform(size=n))
        a = np.triu(random_complex(rng, n), 1) + np.diag(d)
        return a * (rng.uniform(0.47, 0.499) / numerical_radius(lozenge(a)))

    def test_r_below_one_certifies_without_the_radius(self, rng, monkeypatch):
        import conric.solver as solver_mod

        calls = []
        radius = solver_mod.co_spectral_radius_vs_one
        monkeypatch.setattr(solver_mod, "co_spectral_radius_vs_one", lambda m: calls.append(m) or radius(m))
        for solve in (solve_maximal, solve_minimal):
            assert solve(ProblemInstance(random_solvable(rng, 3, max_norm=0.3))).rate_certificate < 1.0
        assert calls == []

    def test_non_normal_family_at_r_above_one(self, rng, monkeypatch):
        # every solve is accepted, and every engine that returns the minimal solution is refused
        import conric.solver as solver_mod

        certificates = []
        certified = solver_mod._certified_rate
        monkeypatch.setattr(
            solver_mod, "_certified_rate", lambda *args: certificates.append(certified(*args)) or certificates[-1]
        )
        reached = 0
        for _ in range(200):
            p = ProblemInstance(self.non_normal(rng, 3))
            certificates.clear()
            solve_maximal(p)
            solve_minimal(p)
            reached += max(certificates) >= 1.0
            with monkeypatch.context() as broken:
                sabotage_engine(broken, "minimal")
                for solve in (solve_maximal, solve_minimal):
                    with pytest.raises(InternalInconsistency, match="solution is not maximal: "):
                        solve(p)
        assert reached >= 100


class TestDoublingBracket:
    # conjugate doubling steps the n x n conjugate recurrence; doubling_all_steps on lozenge(a),
    # in real 2n x 2n arithmetic, is the reference it must match through unheart

    @pytest.mark.parametrize("n", range(1, 7))
    def test_step_j_is_fixed_point_iterate(self, rng, n):
        a = random_solvable(rng, n, min_norm=0.4)
        b, tol = lozenge(a), Tolerances()
        iterates = loop_iterates(b, _fixed_point_generic(b, tol)[1])
        j = 1
        for j, (q, _) in enumerate(_doubling_iterates(a, True), 1):
            if 2**j - 1 >= len(iterates):
                break
            assert np.abs(q - unheart(iterates[2**j - 1])).max() <= 1e-13
            real = unheart(doubling_all_steps(lozenge(a), j))
            assert np.abs(q - real).max() <= 1e-13 * np.abs(real).max()
        assert j >= 4

    @pytest.mark.parametrize("n", range(1, 7))
    def test_steps_the_upper_ladder(self, rng, n):
        # R_k = Y_k: the bracket and the upper ladder are one recurrence, so step j is rung 2^j - 1
        a = random_nonsingular_solvable(rng, n)
        ladder = build_ladder(ProblemInstance(a), "upper", 2**5 - 1)
        steps = [q for q, _ in islice(_doubling_iterates(a, True), 5)]
        for j, q in enumerate(steps, 1):
            rung = ladder.matrices[2**j - 2]
            assert np.abs(q - rung).max() <= 1e-13 * np.abs(rung).max()
        r1 = closed_form_bounds(a, "R1")
        assert np.abs(steps[0] - r1).max() <= 1e-13 * np.abs(r1).max()

    @pytest.mark.parametrize("n, calls", [(1, 0), (2, 1), (5, 1)])
    def test_embeds_once_per_solve(self, rng, monkeypatch, n, calls):
        # only the n >= 2 loop runs on the lozenge, once
        import conric.solver as solver_mod

        counts = {"lozenge": 0, "unheart": 0}
        for name in counts:

            def counting(m, name=name, original=getattr(solver_mod, name)):
                counts[name] += 1
                return original(m)

            monkeypatch.setattr(solver_mod, name, counting)
        solve_maximal(ProblemInstance(random_solvable(rng, n)))
        assert counts == {"lozenge": calls, "unheart": calls}

    @pytest.mark.parametrize("n", [3, 8])
    def test_one_fixed_point_run_per_solve(self, rng, monkeypatch, n):
        import conric.solver as solver_mod

        calls = []
        cone_step = solver_mod._cone_step

        def counting(*args):
            calls.append(None)
            return cone_step(*args)

        monkeypatch.setattr(solver_mod, "_cone_step", counting)
        out = solve_maximal(ProblemInstance(random_solvable(rng, n)))
        assert len(calls) == out.iterations

    @staticmethod
    def last_q(a, steps):
        """Q of the last of at most ``steps`` steps of conjugate doubling on a."""
        for q, _ in islice(_doubling_iterates(a, True), steps):
            pass
        return q

    def test_stops_once_b_vanishes(self, rng, monkeypatch):
        # B_j underflows to exact zero for a well-separated A; the steps after
        # it are no-ops, so stopping there changes no bit of Q
        calls = []
        cholesky = _lapack.cholesky_lo
        monkeypatch.setattr(_lapack, "cholesky_lo", lambda h, **kw: calls.append(h) or cholesky(h, **kw))
        steps = Tolerances().max_iter.bit_length()
        a = random_with_norm(rng, 4, 0.1)
        q = self.last_q(a, steps)
        assert len(calls) < steps - 1
        assert q.tobytes() == conjugate_doubling_all_steps(a, steps).tobytes()
        real = unheart(doubling_all_steps(lozenge(a), steps))
        assert np.abs(q - real).max() <= 1e-13 * np.abs(real).max()

    def test_runs_every_step_near_critical(self, rng, monkeypatch):
        # step 1 is closed form, so each of the steps after it factors Q - P once
        calls = []
        cholesky = _lapack.cholesky_lo
        monkeypatch.setattr(_lapack, "cholesky_lo", lambda h, **kw: calls.append(h) or cholesky(h, **kw))
        steps = Tolerances().max_iter.bit_length()
        a = near_critical(rng)
        q = self.last_q(a, steps)
        assert len(calls) == steps - 1
        assert q.tobytes() == conjugate_doubling_all_steps(a, steps).tobytes()
        real = unheart(doubling_all_steps(lozenge(a), steps))
        assert np.abs(q - real).max() <= 1e-13 * np.abs(real).max()

    @pytest.mark.parametrize("excess", [0.3, 1e-2, 1e-4])
    def test_a_lost_definiteness_raises_at_its_step(self, rng, excess):
        # omega(lozenge A) = 1/2 + excess: no solution, so Q - P leaves the cone at some step
        tol = Tolerances()
        steps = tol.max_iter.bit_length()
        u = random_unitary(rng, 3)
        a = u @ np.diag([0.1, 0.3, 0.5 + excess]) @ u.T
        # the first step j at which np.linalg.cholesky refuses Q - P in the real reference doubling
        for j in range(1, steps + 1):
            try:
                doubling_all_steps(lozenge(a), j)
            except np.linalg.LinAlgError:
                break
        else:
            pytest.fail("the reference doubling never refused")
        # step j factors Q_(j-1) - P_(j-1), so the run ends after yielding j - 1 steps
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(list(_doubling_iterates(a, True))) == j - 1

    @staticmethod
    def agreement_family(rng):
        """Unit coefficients a_q: random n 1-8, the non-normal family, near-critical, and Q != I with cond <= 10."""
        family = [random_solvable(rng, n) for n in range(1, 9) for _ in range(2)]
        family += [random_non_normal(rng, n) for n in range(2, 6)]
        family += [near_critical(rng) for _ in range(2)]
        family = [ProblemInstance(a).a_q for a in family]
        for n in range(1, 7):
            u = random_unitary(rng, n)
            q = (u * rng.uniform(1.0, 10.0, n)) @ u.conj().T
            family.append(ProblemInstance(random_solvable(rng, n), (q + q.conj().T) / 2.0).a_q)
        return family

    def test_the_loop_agrees_with_converged_doubling(self, rng):
        # the engine's Y for a_q and for a_q* lies within the near-critical gap bound of the
        # converged Q of doubling on the same coefficient; this is the check the bracket made
        tol = Tolerances()
        for a_q in self.agreement_family(rng):
            for c in (a_q, a_q.conj().T):
                y = _unit_maximal(c, tol)[0]
                converged = self.last_q(c, tol.max_iter.bit_length())
                assert np.linalg.norm(y - converged, 2) <= 1e-10

    def test_two_sided_gap_near_critical(self, rng):
        # complex-symmetric A = U diag(s) U^T has omega(lozenge A) = ||A|| = max s
        a = near_critical(rng)
        tol = Tolerances()
        out = solve_maximal(ProblemInstance(a, None, tol))
        converged = conjugate_doubling_all_steps(a, tol.max_iter.bit_length())
        assert out.iterations > 300
        assert np.linalg.norm(out.solution - converged, 2) <= 1e-10


def _critical(rng, n, eps):
    """Complex-symmetric A = U diag(s) U^T with omega(lozenge A) = ||A|| = 1/2 - eps."""
    u = random_unitary(rng, n)
    s = rng.uniform(0.0, 1.0, size=n)
    return u @ np.diag((0.5 - eps) * s / s.max()) @ u.T


class TestBlockedTrace:
    # the generic loop evaluates its trace in stacked blocks; every entry must
    # be bitwise the norm one hermitian_norm_2 call per step gives

    @staticmethod
    def observed(b, tol=Tolerances()):
        """(trace, iterations, failure or None, reference change norms) of a generic-loop run."""
        try:
            _, iterations, trace, _ = _fixed_point_generic(b, tol)
            failure = None
        except (NoSolutionEvidence, MaxIterationsExceeded) as exc:
            iterations, trace, failure = exc.iterations, exc.trace, exc
        iterates = loop_iterates(b, iterations)
        reference = [hermitian_norm_2(w1 - w0) for w0, w1 in zip(iterates, iterates[1:])]
        return trace, iterations, failure, reference

    @staticmethod
    def flushes(monkeypatch):
        import conric.solver as solver_mod

        sizes = []
        norms = solver_mod.hermitian_norms_2
        monkeypatch.setattr(solver_mod, "hermitian_norms_2", lambda s: sizes.append(len(s)) or norms(s))
        return sizes

    @pytest.mark.parametrize("n, eps", [(8, 1.3e-4), (32, None)])
    def test_entries_are_the_per_step_norms(self, rng, monkeypatch, n, eps):
        a = _critical(rng, n, eps) if eps is not None else random_with_norm(rng, n, 0.45)
        sizes = self.flushes(monkeypatch)
        trace, iterations, _, reference = self.observed(lozenge(a))
        assert list(trace) == reference and len(reference) == iterations
        # several blocks at n = 8; one matrix a block at n = 32
        assert max(sizes) == (16 if n == 8 else 1) and sum(sizes) == iterations
        assert iterations > (400 if n == 8 else 12)
        # the conjugate solve runs this loop and keeps the same trace
        assert list(solve_maximal(ProblemInstance(a)).trace) == reference

    @pytest.mark.parametrize("c", [0.502, 0.5005])
    def test_a_refusal_mid_block_keeps_the_whole_trace(self, rng, monkeypatch, c):
        u = random_unitary(rng, 3)
        sizes = self.flushes(monkeypatch)
        trace, iterations, exc, reference = self.observed(lozenge(c * u @ u.T))
        assert isinstance(exc, NoSolutionEvidence)
        assert list(trace) == reference and len(reference) == iterations
        assert len(sizes) >= 2 and 0 < sizes[-1] < sizes[0]

    @pytest.mark.parametrize("max_iter", [45, 1, 33])
    def test_the_iteration_cap_keeps_the_whole_trace(self, rng, max_iter):
        trace, iterations, exc, reference = self.observed(
            lozenge(_critical(rng, 4, 1e-4)), Tolerances(max_iter=max_iter)
        )
        assert isinstance(exc, MaxIterationsExceeded)
        assert list(trace) == reference and len(reference) == iterations == max_iter

    def test_loop_iterates_are_the_loops_sequence(self, rng):
        # tests read the loop's iterates from loop_iterates, which steps the loop's own _cone_step
        tol = Tolerances()
        for a in (random_solvable(rng, 1), random_solvable(rng, 3), _critical(rng, 2, 1e-3)):
            b = lozenge(a)
            w, iterations, trace, _ = _fixed_point_generic(b, tol)
            iterates = loop_iterates(b, iterations)
            assert list(trace) == [hermitian_norm_2(w1 - w0) for w0, w1 in zip(iterates, iterates[1:])]
            assert w.tobytes() == iterates[-1].tobytes()


class TestConeStep:
    @pytest.mark.parametrize("conjugate_iterate", [False, True])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_reference_step(self, rng, n, conjugate_iterate):
        w = random_psd(rng, n)
        w = w / np.linalg.norm(w, 2) + 0.5 * np.eye(n)
        c = random_with_norm(rng, n, 0.5)
        step, margin, gram = _cone_step(w, c, conjugate_iterate)
        expected = reference_step(w, c, conjugate_iterate)
        assert margin > 0.0
        assert np.linalg.norm(step - expected, 2) <= 1e-13 * np.linalg.norm(expected, 2)
        # the Gram is the step's subtrahend C* inner(W)^-1 C
        assert np.linalg.norm(gram - (np.eye(n) - expected), 2) <= 1e-13 * np.linalg.norm(expected, 2)

    @pytest.mark.parametrize("conjugate_iterate", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
    def test_step_is_bitwise_the_numpy_linalg_step(self, rng, n, conjugate_iterate):
        w = random_psd(rng, n) + np.eye(n)
        w.flags.writeable = False
        lower = np.linalg.cholesky(w)
        c = random_with_norm(rng, n, 0.5)
        # a real coefficient against the complex factor is promoted as np.linalg.solve promotes it
        for c in (c, c.real.copy()):
            z = np.linalg.solve(np.conj(lower) if conjugate_iterate else lower, c)
            gram = z.conj().T @ z
            expected = np.eye(n) - gram
            step, step_gram = _step(lower, c, conjugate_iterate)
            assert step.tobytes() == ((expected + expected.conj().T) / 2.0).tobytes()
            assert step_gram.tobytes() == gram.tobytes()

    def test_recurrence_makes_no_svd_or_inverse(self, rng, monkeypatch):
        a = random_solvable(rng, 4, min_norm=0.3)
        # the gufuncs, which np.linalg calls too, so neither route goes unseen
        calls = []
        for name in ["inv"] + [name for name in dir(_lapack) if name.startswith("svd")]:
            original = getattr(_lapack, name)
            counting = lambda *args, _f=original, _n=name, **kw: calls.append(_n) or _f(*args, **kw)
            monkeypatch.setattr(_lapack, name, counting)
        assert _fixed_point_generic(lozenge(a), Tolerances())[1] > 8
        assert standard_solve_maximal(lozenge(a)).iterations > 0
        assert calls == []
        ProblemInstance(a)
        setup = list(calls)  # the ladder's one Q normalisation
        calls.clear()
        assert build_ladder(ProblemInstance(a), "lower", 8).depth == 8
        assert calls == setup
        # the watch is live: mat_inverse takes singular values, then inverts
        mat_inverse(a)
        assert calls[-1] == "inv" and calls[-2].startswith("svd")

    @pytest.mark.parametrize("n", range(2, 7))
    def test_wnorm_only_near_the_stop(self, rng, monkeypatch, n):
        # ||W|| is taken only once the change is within 2 stop_rel; the
        # stopping decisions, hence the iteration counts, stay the same
        import conric.solver as solver_mod

        calls, certificates, blocks = [], [], []
        for name, record in (("hermitian_norm_2", calls), ("op_norm_2", certificates)):
            norm = getattr(solver_mod, name)
            counting = lambda m, _f=norm, _r=record: _r.append(None) or _f(m)
            monkeypatch.setattr(solver_mod, name, counting)
        norms = solver_mod.hermitian_norms_2
        monkeypatch.setattr(solver_mod, "hermitian_norms_2", lambda s: blocks.append(len(s)) or norms(s))
        b = lozenge(random_solvable(rng, n, min_norm=0.3))
        _, iterations, trace, _ = _fixed_point_generic(b, Tolerances())
        # every change norm comes from a stacked block, once; single norms are
        # only ||W|| and the residual near the stop; the loop takes no general
        # norm, since the rate certificate is its callers'
        assert sum(blocks) == len(trace) == iterations
        assert len(blocks) < iterations
        assert 2 <= len(calls) <= 5
        assert certificates == []
        assert iterations == reference_iterations(b)

    @pytest.mark.parametrize("with_q", [False, True])
    def test_solves_build_no_eigenvectors(self, rng, monkeypatch, with_q):
        # the eigenvector gufuncs, which np.linalg.eigh calls too
        calls = []
        for name in ("eigh_lo", "eigh_up"):
            eigh = getattr(_lapack, name)
            monkeypatch.setattr(_lapack, name, lambda *a, _f=eigh, **kw: calls.append(None) or _f(*a, **kw))
        for n in (1, 2, 3, 6):
            a = random_nonsingular_solvable(rng, n)
            q = random_psd(rng, n) + np.eye(n) if with_q else None
            p = ProblemInstance(a, q)
            assert solve_maximal(p).iterations > 0 and solve_minimal(p).iterations > 0
        assert calls == []
        # the watch is live
        np.linalg.eigh(np.eye(2))
        assert len(calls) == 1

    def test_iteration_counts_match_reference_near_critical(self):
        # complex-symmetric A = U diag(s) U^T has omega(lozenge A) = ||A|| = max s
        rng = np.random.default_rng(909)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            u = random_unitary(rng, n)
            s = rng.uniform(0.0, 1.0, size=n)
            s = (0.5 - rng.uniform(1e-4, 1e-2)) * s / s.max()
            a = u @ np.diag(s) @ u.T
            out = solve_maximal(ProblemInstance(a))
            assert out.iterations == reference_iterations(lozenge(a))
