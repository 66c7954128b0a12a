import numpy as np
import pytest

from conric.bounds import (
    LadderBreakdown,
    build_ladder,
    closed_form_bounds,
    sandwich_report,
)
from conric.embedding import lozenge, unheart
from conric.kernel import NotPositiveDefiniteError, adjoint
from conric.solver import (
    ProblemInstance,
    SingularCoefficient,
    solve_maximal,
    solve_minimal,
    standard_solve_maximal,
)
from helpers import (
    EX1_A,
    ONE_SIDED_BREAKDOWN,
    random_complex,
    random_nonsingular_solvable,
    random_psd,
    random_solvable,
    random_unitary,
    random_well_conditioned_solvable,
    scalar_ladder,
)


_RANDOM_3 = random_complex(np.random.default_rng(5), 3)
_UNIT_NORM_3 = _RANDOM_3 / np.linalg.norm(_RANDOM_3, 2)


def min_eig(h):
    return np.linalg.eigvalsh((h + h.conj().T) / 2.0)[0]


class TestBuildLadder:
    def test_zero_coefficient_lower(self):
        ladder = build_ladder(np.zeros((2, 2)), "lower", 4)
        assert ladder.depth == 4
        for rung in ladder.matrices:
            assert np.allclose(rung, np.zeros((2, 2)))

    def test_rank_deficient_coefficient_upper_lies_above_maximal(self, rng):
        # R_k = Y_k(A) inverts only its iterates, so every rank, zero included, has an upper ladder
        for n in range(2, 9):
            for rank in range(n):
                a = random_complex(rng, n, rank) @ random_complex(rng, rank, n)
                if rank:
                    a *= rng.uniform(0.05, 0.45) / np.linalg.norm(a, 2)
                x_plus = solve_maximal(ProblemInstance(a)).solution
                ladder = build_ladder(a, "upper", 6)
                assert ladder.depth == 6, (n, rank)
                for rung in ladder.matrices:
                    assert min_eig(rung - x_plus) >= -1e-12 * np.linalg.norm(x_plus, 2), (n, rank)

    def test_example_first_rung(self):
        ladder = build_ladder(EX1_A, "lower", 1)
        expected = np.array(
            [[0.1875, -0.125 - 0.125j], [-0.125 + 0.125j, 0.1875]]
        )
        assert np.allclose(ladder.matrices[0], expected, atol=1e-14)

    def test_scalar_second_rung(self):
        ladder = build_ladder(0.3 * np.eye(1), "lower", 2)
        assert ladder.matrices[1][0, 0].real == pytest.approx(0.09 / 0.91, abs=1e-12)

    def test_monotone_gaps(self, rng):
        a = random_nonsingular_solvable(rng, 3)
        for side in ("lower", "upper"):
            ladder = build_ladder(a, side, 6)
            assert ladder.truncated_at is None
            assert all(g >= -1e-9 for g in ladder.monotone_gaps)

    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_monotone_gaps_are_the_per_pair_values(self, rng, side):
        # one stacked eigvalsh gives each pair's value exactly
        a = random_nonsingular_solvable(rng, 4)
        ladder = build_ladder(a, side, 12)
        sign = -1.0 if side == "upper" else 1.0
        pairs = zip(ladder.matrices, ladder.matrices[1:])
        expected = [float(min_eig(sign * (later - earlier))) for earlier, later in pairs]
        assert ladder.monotone_gaps == expected
        assert build_ladder(a, side, 1).monotone_gaps == []

    def test_blocks_retained_and_grow(self, rng):
        a = random_solvable(rng, 2)
        ladder = build_ladder(a, "lower", 3)
        assert [b.shape[0] for b in ladder.ladder_blocks] == [2, 4, 6]

    def test_breakdown_certifies_nonexistence(self):
        with pytest.raises(LadderBreakdown) as info:
            build_ladder(0.8 * np.eye(2), "lower", 6)
        assert info.value.rung == 3
        # ||A|| = 0.62: LAPACK refuses iterate 6 and the pivot loop signs its margin
        for side in ("lower", "upper"):
            with pytest.raises(LadderBreakdown, match="pivot margin -6") as info:
                build_ladder(0.62 * _UNIT_NORM_3, side, 12)
            assert info.value.rung == 7

    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_truncates_below_the_pivot_floor(self, side):
        # y_2 = (1 - 2a^2) / (1 - a^2) = 2e-13 for a^2 = 1/2 - 5e-14, so
        # iterate 2 is positive with pivot margin 4e-13, below pd_floor
        a = np.diag([np.sqrt(0.5 - 5e-14), 0.1])
        ladder = build_ladder(a, side, 6)
        assert ladder.truncated_at == 3
        assert len(ladder.matrices) == 2

    def test_third_block_implies_gram_condition(self, rng):
        # a definite third block forces I - AA* - conj(A*A) definite
        from conric.kernel import is_positive_definite

        for _ in range(5):
            a = random_solvable(rng, 3)
            ladder = build_ladder(a, "lower", 3)
            assert ladder.truncated_at is None
            n = a.shape[0]
            gram = np.eye(n) - a @ adjoint(a) - np.conj(adjoint(a) @ a)
            assert is_positive_definite((gram + gram.conj().T) / 2.0).ok

    def test_rejects_bad_side_and_depth(self):
        with pytest.raises(ValueError):
            build_ladder(EX1_A, "middle", 2)
        with pytest.raises(ValueError):
            build_ladder(EX1_A, "lower", 0)


class TestRecurrence:
    """Oracle-free identities: the rungs are the solver's own iterates."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_rungs_are_embedded_iterates(self, rng, n):
        # R_k = Y_k(A) and S_k = I - conj(Y_k(A*)), Y_k read off the real embedding
        a = random_nonsingular_solvable(rng, n, min_norm=0.3)
        eye = np.eye(n)
        for side, coeff in (("upper", a), ("lower", adjoint(a))):
            iterates = []
            standard_solve_maximal(lozenge(coeff), observer=iterates.append)
            depth = min(8, len(iterates) - 1)
            ladder = build_ladder(a, side, depth)
            assert ladder.depth == depth
            for k, rung in enumerate(ladder.matrices, start=1):
                y = unheart(iterates[k])
                expected = y if side == "upper" else eye - np.conj(y)
                assert np.abs(rung - expected).max() <= 1e-12

    @pytest.mark.parametrize("with_q", [False, True])
    def test_q_congruence(self, rng, with_q):
        # (A, Q) -> (P^T A P, P* Q P) maps every solution X to P* X P, and
        # every rung of both ladders the same way
        n = 3
        a = random_nonsingular_solvable(rng, n)
        q = random_psd(rng, n) + np.eye(n) if with_q else None
        p = np.eye(n) + 0.2 * random_complex(rng, n)
        q_moved = p.conj().T @ (np.eye(n) if q is None else q) @ p
        for side in ("lower", "upper"):
            base = build_ladder(a, side, 6, q=q)
            moved = build_ladder(p.T @ a @ p, side, 6, q=q_moved)
            assert moved.depth == base.depth == 6
            for r0, r1 in zip(base.matrices, moved.matrices):
                expected = p.conj().T @ r0 @ p
                assert np.abs(r1 - expected).max() <= 1e-10 * np.abs(expected).max()

    def test_q_none_is_identity(self, rng):
        a = random_nonsingular_solvable(rng, 3)
        for side in ("lower", "upper"):
            unit = build_ladder(a, side, 4)
            explicit = build_ladder(a, side, 4, q=np.eye(3))
            for r0, r1 in zip(unit.matrices, explicit.matrices):
                assert np.array_equal(r0, r1)

    def test_rejects_indefinite_q(self):
        with pytest.raises(NotPositiveDefiniteError):
            build_ladder(EX1_A, "lower", 2, q=-np.eye(2))


class TestClosedForms:
    def test_first_lower_rung_example(self):
        expected = np.conj(EX1_A @ adjoint(EX1_A))
        assert np.allclose(closed_form_bounds(EX1_A, "S1"), expected, atol=1e-14)

    def test_scalar_upper_rung(self):
        r1 = closed_form_bounds(0.3 * np.eye(1), "R1")
        assert r1[0, 0].real == pytest.approx(0.91, abs=1e-14)

    def test_zero_coefficient(self):
        assert np.allclose(closed_form_bounds(np.zeros((2, 2)), "S2"), np.zeros((2, 2)))

    def test_rejects_unknown_selector(self):
        with pytest.raises(ValueError):
            closed_form_bounds(EX1_A, "S4")

    def test_inner_matrix_must_be_definite(self):
        with pytest.raises(NotPositiveDefiniteError):
            closed_form_bounds(1.5 * np.eye(2), "S2")

    @pytest.mark.parametrize("norm", [1e-6, 1e-4, 1e-2])
    @pytest.mark.parametrize("which, index", [("S1", 0), ("S2", 1)])
    def test_small_lower_rungs_keep_their_digits(self, rng, norm, which, index):
        # the rung comes from the step's Gram, so I - conj(Y_k) does not cancel
        a = random_complex(rng, 4)
        a = norm * a / np.linalg.norm(a, 2)
        rung = build_ladder(a, "lower", 2).matrices[index]
        expected = closed_form_bounds(a, which)
        assert np.linalg.norm(rung - expected, 2) <= 1e-14 * np.linalg.norm(expected, 2)

    @pytest.mark.parametrize("which,side,index", [
        ("S1", "lower", 0), ("S2", "lower", 1), ("S3", "lower", 2),
        ("R1", "upper", 0), ("R2", "upper", 1), ("R3", "upper", 2),
    ])
    def test_matches_ladder_rungs(self, rng, which, side, index):
        # pins the parity bookkeeping: a swapped conjugation would break this
        a = random_nonsingular_solvable(rng, 3)
        ladder = build_ladder(a, side, 3)
        assert np.allclose(
            closed_form_bounds(a, which), ladder.matrices[index], atol=1e-10
        )


class TestScalarOracle:
    @pytest.mark.parametrize("mag", [0.1, 0.3, 0.45])
    def test_continued_fraction(self, mag):
        a = mag * np.exp(0.7j) * np.eye(1)
        lower_oracle, upper_oracle = scalar_ladder(complex(a[0, 0]), 6)
        lower = build_ladder(a, "lower", 6)
        upper = build_ladder(a, "upper", 6)
        for k in range(6):
            assert lower.matrices[k][0, 0].real == pytest.approx(lower_oracle[k], abs=1e-12)
            assert upper.matrices[k][0, 0].real == pytest.approx(upper_oracle[k], abs=1e-12)


class TestDomination:
    def test_solutions_inside_ladder(self, rng):
        # singular values bounded below keep strict gaps above rounding
        for _ in range(4):
            a = random_well_conditioned_solvable(rng, 2)
            p = ProblemInstance(a)
            hi = solve_maximal(p).solution
            lo = solve_minimal(p).solution
            lower = build_ladder(a, "lower", 5)
            upper = build_ladder(a, "upper", 5)
            for rung in lower.matrices:
                assert min_eig(lo - rung) > 0.0
            for rung in upper.matrices:
                assert min_eig(rung - hi) > 0.0

    def test_solutions_inside_q_ladder(self, rng):
        # a Q with spectrum in [1, 1.2] keeps the singular values of a_q
        # above 0.2, so the strict gaps stay above rounding as well
        for _ in range(4):
            a = random_well_conditioned_solvable(rng, 2)
            u = random_unitary(rng, 2)
            q = (u * rng.uniform(1.0, 1.2, size=2)) @ u.conj().T
            p = ProblemInstance(a, q)
            hi = solve_maximal(p).solution
            lo = solve_minimal(p).solution
            for rung in build_ladder(a, "lower", 5, q=q).matrices:
                assert min_eig(lo - rung) > 0.0
            for rung in build_ladder(a, "upper", 5, q=q).matrices:
                assert min_eig(rung - hi) > 0.0


class TestSandwichReport:
    def test_scalar_depth_four(self):
        report = sandwich_report(0.3 * np.eye(1), 4)
        s4 = report.lower.matrices[-1][0, 0].real
        r4 = report.upper.matrices[-1][0, 0].real
        assert s4 == pytest.approx(0.0999864517, abs=1e-9)
        assert r4 == pytest.approx(0.9000135483, abs=1e-9)
        assert s4 < 0.1 < 0.9 < r4
        assert report.lower_gap > 0.0
        assert report.upper_gap > 0.0
        assert report.consistent

    def test_example_depth_three(self):
        report = sandwich_report(EX1_A, 3)
        assert report.lower_gap > 0.0
        assert report.upper_gap > 0.0
        assert all(g >= -1e-9 for g in report.lower.monotone_gaps)
        assert all(g >= -1e-9 for g in report.upper.monotone_gaps)

    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_either_ladder_breakdown_raises_before_the_solves(self, monkeypatch, side):
        from conric import bounds

        monkeypatch.setattr(bounds, "solve_maximal", None)
        with pytest.raises(LadderBreakdown, match="^ladder iterate 1 "):
            sandwich_report(ONE_SIDED_BREAKDOWN[side], 6)

    def test_zero_coefficient_refused(self):
        with pytest.raises(SingularCoefficient):
            sandwich_report(np.zeros((2, 2)), 3)

    def test_trend_reported(self, rng):
        a = random_nonsingular_solvable(rng, 2)
        report = sandwich_report(a, 6)
        assert len(report.lower_trend) == 2
        # deeper rungs move less
        assert report.lower_trend[-1] <= report.lower_trend[0] + 1e-12
