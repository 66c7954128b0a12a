import dataclasses

import numpy as np
import pytest

from conric.bounds import (
    LadderBreakdown,
    build_ladder,
    closed_form_bounds,
    sandwich_report,
)
from conric.embedding import lozenge, unheart
from conric.kernel import NotPositiveDefiniteError, Tolerances, adjoint
from conric.solver import (
    ProblemInstance,
    _cone_step,
    _doubling_iterates,
    _extremal_pair,
    _fixed_point_generic,
    SingularCoefficient,
    solve_maximal,
    solve_minimal,
)
from helpers import (
    EX1_A,
    ONE_SIDED_BREAKDOWN,
    loop_iterates,
    near_critical,
    near_critical_solutions,
    random_complex,
    random_non_normal,
    random_nonsingular_solvable,
    random_psd,
    random_solvable,
    random_unitary,
    random_well_conditioned_solvable,
    random_with_norm,
    scalar_ladder,
)


_RANDOM_3 = random_complex(np.random.default_rng(5), 3)
_UNIT_NORM_3 = _RANDOM_3 / np.linalg.norm(_RANDOM_3, 2)


def min_eig(h):
    return np.linalg.eigvalsh((h + h.conj().T) / 2.0)[0]


def sandwich(a, depth):
    # the ladders lower first, then the sandwich, as conric bounds builds them
    p = ProblemInstance(a)
    return sandwich_report(p, build_ladder(p, "lower", depth), build_ladder(p, "upper", depth))


class TestBuildLadder:
    def test_zero_coefficient_lower(self):
        ladder = build_ladder(ProblemInstance(np.zeros((2, 2))), "lower", 4)
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
                p = ProblemInstance(a)
                x_plus = solve_maximal(p).solution
                ladder = build_ladder(p, "upper", 6)
                assert ladder.depth == 6, (n, rank)
                for rung in ladder.matrices:
                    assert min_eig(rung - x_plus) >= -1e-12 * np.linalg.norm(x_plus, 2), (n, rank)

    def test_example_first_rung(self):
        ladder = build_ladder(ProblemInstance(EX1_A), "lower", 1)
        expected = np.array(
            [[0.1875, -0.125 - 0.125j], [-0.125 + 0.125j, 0.1875]]
        )
        assert np.allclose(ladder.matrices[0], expected, atol=1e-14)

    def test_scalar_second_rung(self):
        ladder = build_ladder(ProblemInstance(0.3 * np.eye(1)), "lower", 2)
        assert ladder.matrices[1][0, 0].real == pytest.approx(0.09 / 0.91, abs=1e-12)

    def test_monotone_gaps(self, rng):
        p = ProblemInstance(random_nonsingular_solvable(rng, 3))
        for side in ("lower", "upper"):
            ladder = build_ladder(p, side, 6)
            assert ladder.truncated_at is None
            assert all(g >= -1e-9 for g in ladder.monotone_gaps)

    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_monotone_gaps_are_the_per_pair_values(self, rng, side):
        # one stacked eigvalsh gives each pair's value exactly
        p = ProblemInstance(random_nonsingular_solvable(rng, 4))
        ladder = build_ladder(p, side, 12)
        sign = -1.0 if side == "upper" else 1.0
        pairs = zip(ladder.matrices, ladder.matrices[1:])
        expected = [float(min_eig(sign * (later - earlier))) for earlier, later in pairs]
        assert ladder.monotone_gaps == expected
        assert build_ladder(p, side, 1).monotone_gaps == []

    def test_blocks_retained_and_grow(self, rng):
        p = ProblemInstance(random_solvable(rng, 2))
        ladder = build_ladder(p, "lower", 3)
        assert [b.shape[0] for b in ladder.ladder_blocks] == [2, 4, 6]

    def test_blocks_are_read_only_views_of_the_deepest(self, rng):
        blocks = build_ladder(ProblemInstance(random_solvable(rng, 2)), "upper", 4).ladder_blocks
        deepest = blocks[-1]
        for block in blocks:
            assert block.base is deepest.base and not block.flags.writeable
            np.testing.assert_array_equal(block, deepest[: block.shape[0], : block.shape[0]])

    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_rungs_are_the_schur_complements_of_the_blocks(self, side):
        # the Schur complement of the leading kn x kn block of H_(k+1) is R_k (odd k) or conj(R_k)
        # (even k) on the upper side; on the lower side I minus it is conj(S_k) (odd k) or S_k.  Both
        # agree to a few rounding units of the unit-size rungs; a dropped conjugation is off by 0.03
        n, depth = 3, 5
        a = 0.3 * _UNIT_NORM_3
        ladder = build_ladder(ProblemInstance(a), side, depth + 1)
        for k, h in enumerate(ladder.ladder_blocks[1:], 1):
            m = k * n
            schur = h[m:, m:] - h[m:, :m] @ np.linalg.solve(h[:m, :m], h[:m, m:])
            rung = ladder.matrices[k - 1]
            if side == "upper":
                got, want = schur, rung if k % 2 else np.conj(rung)
            else:
                got, want = np.eye(n) - schur, np.conj(rung) if k % 2 else rung
            assert np.abs(got - want).max() <= 4 * np.finfo(float).eps, (side, k)

    def test_breakdown_certifies_nonexistence(self):
        with pytest.raises(LadderBreakdown) as info:
            build_ladder(ProblemInstance(0.8 * np.eye(2)), "lower", 6)
        assert info.value.rung == 3
        # ||A|| = 0.62: LAPACK refuses iterate 6 and the pivot loop signs its margin
        for side in ("lower", "upper"):
            with pytest.raises(LadderBreakdown, match="pivot margin -6") as info:
                build_ladder(ProblemInstance(0.62 * _UNIT_NORM_3), side, 12)
            assert info.value.rung == 7

    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_truncates_below_the_pivot_floor(self, side):
        # y_2 = (1 - 2a^2) / (1 - a^2) = 2e-13 for a^2 = 1/2 - 5e-14, so
        # iterate 2 is positive with pivot margin 4e-13, below PD_FLOOR
        a = np.diag([np.sqrt(0.5 - 5e-14), 0.1])
        ladder = build_ladder(ProblemInstance(a), side, 6)
        assert ladder.truncated_at == 3
        assert len(ladder.matrices) == 2

    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_a_nan_margin_is_never_truncation(self, monkeypatch, side):
        # the floor refuses a NaN pivot with margin NaN; only a positive margin truncates a ladder
        import conric.bounds as bounds_mod

        monkeypatch.setattr(bounds_mod, "_cone_step", lambda y, coeff, conjugate: (None, np.nan, None))
        with pytest.raises(LadderBreakdown, match=r"pivot margin nan") as info:
            build_ladder(ProblemInstance(EX1_A), side, 6)
        assert (info.value.side, info.value.rung) == (side, 1)

    def test_third_block_implies_gram_condition(self, rng):
        # a definite third block forces I - AA* - conj(A*A) definite
        from conric.kernel import is_positive_definite

        for _ in range(5):
            a = random_solvable(rng, 3)
            ladder = build_ladder(ProblemInstance(a), "lower", 3)
            assert ladder.truncated_at is None
            n = a.shape[0]
            gram = np.eye(n) - a @ adjoint(a) - np.conj(adjoint(a) @ a)
            assert is_positive_definite((gram + gram.conj().T) / 2.0).ok

    def test_rejects_bad_side_and_depth(self):
        with pytest.raises(ValueError):
            build_ladder(ProblemInstance(EX1_A), "middle", 2)
        with pytest.raises(ValueError):
            build_ladder(ProblemInstance(EX1_A), "lower", 0)


def stepped_rungs(p, side):
    """(rung, iterate) pairs of p's ladder, every rung stepped by _cone_step with no reuse."""
    coeff = p.a_q if side == "upper" else adjoint(p.a_q)
    y = np.eye(p.n, dtype=np.complex128)
    while True:
        y, _, gram = _cone_step(y, coeff, True)
        assert y is not None
        yield p.back(y if side == "upper" else np.conj((gram + gram.conj().T) / 2.0)), y


class TestConvergedLadders:
    """A ladder whose iterate repeats bitwise reuses rungs and gaps; the stepped rungs are the oracle."""

    # on x86-64 with numpy 2 the first ladder repeats with period 1 from rung 14, the second with
    # period 2 from rung 16, its two gaps different; the test reads both off the stepped reference
    @pytest.mark.parametrize(
        "n, seed, side", [(2, 0, "upper"), (4, 5, "upper")], ids=["period-1", "period-2"]
    )
    def test_reuse_equals_stepping_every_rung(self, n, seed, side):
        p = ProblemInstance(random_with_norm(np.random.default_rng(seed), n, 0.3))
        seen = {np.eye(n, dtype=np.complex128).tobytes(): 1}
        for k, (_, y) in enumerate(stepped_rungs(p, side), start=2):
            earlier = seen.setdefault(y.tobytes(), k)
            if earlier < k:
                break
        repeat, period = k, k - earlier
        assert repeat <= 48
        sign = -1.0 if side == "upper" else 1.0
        for depth in (repeat - 1, 48, 100_000):
            ladder = build_ladder(p, side, depth)
            assert (ladder.depth, ladder.truncated_at) == (depth, None)
            assert len(ladder.matrices) == depth == len(ladder.monotone_gaps) + 1
            # gaps in stacked blocks of 4,096 differences: LAPACK computes each matrix of a stack on its own
            block, gaps = [], []
            for rung, (expected, _) in zip(ladder.matrices, stepped_rungs(p, side)):
                assert np.array_equal(rung, expected)
                block.append(expected)
                if len(block) == 4097 or len(gaps) + len(block) == depth:
                    diffs = sign * np.diff(block, axis=0)
                    gaps += np.linalg.eigvalsh((diffs + np.swapaxes(diffs, 1, 2).conj()) / 2.0)[:, 0].tolist()
                    block = block[-1:]
            assert ladder.monotone_gaps == gaps
            if depth == 100_000:
                assert len({id(rung) for rung in ladder.matrices}) <= repeat + period

    def test_rungs_are_read_only(self):
        # repeated rungs share one array, so no rung may be written to
        for side in ("lower", "upper"):
            ladder = build_ladder(ProblemInstance(EX1_A), side, 48)
            for rung in ladder.matrices:
                with pytest.raises(ValueError, match="read-only"):
                    rung[0, 0] = 1.0


class TestRecurrence:
    """Oracle-free identities: the rungs are the solver's own iterates."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_rungs_are_embedded_iterates(self, rng, n):
        # R_k = Y_k(A) and S_k = I - conj(Y_k(A*)), Y_k read off the real embedding
        a = random_nonsingular_solvable(rng, n, min_norm=0.3)
        eye = np.eye(n)
        for side, coeff in (("upper", a), ("lower", adjoint(a))):
            b, tol = lozenge(coeff), Tolerances()
            iterates = loop_iterates(b, min(8, _fixed_point_generic(b, tol)[1]))
            depth = len(iterates) - 1
            ladder = build_ladder(ProblemInstance(a), side, depth)
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
            base = build_ladder(ProblemInstance(a, q), side, 6)
            moved = build_ladder(ProblemInstance(p.T @ a @ p, q_moved), side, 6)
            assert moved.depth == base.depth == 6
            for r0, r1 in zip(base.matrices, moved.matrices):
                expected = p.conj().T @ r0 @ p
                assert np.abs(r1 - expected).max() <= 1e-10 * np.abs(expected).max()

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_doubling_steps_both_ladders(self, rng, n):
        # step j of doubling on a_q is the pair of unit rungs (R_(2^j - 1), S_(2^j - 1))
        p = ProblemInstance(random_nonsingular_solvable(rng, n, min_norm=0.3))
        upper, lower = (build_ladder(p, side, 2**4 - 1).matrices for side in ("upper", "lower"))
        iterates = _doubling_iterates(p.a_q, True)
        for j, (q, p_j) in zip(range(1, 5), iterates):
            assert np.abs(q - upper[2**j - 2]).max() <= 1e-14
            assert np.abs(p_j - lower[2**j - 2]).max() <= 1e-14

    def test_q_none_is_identity(self, rng):
        a = random_nonsingular_solvable(rng, 3)
        for side in ("lower", "upper"):
            unit = build_ladder(ProblemInstance(a), side, 4)
            explicit = build_ladder(ProblemInstance(a, np.eye(3)), side, 4)
            for r0, r1 in zip(unit.matrices, explicit.matrices):
                assert np.array_equal(r0, r1)

    def test_rejects_indefinite_q(self):
        with pytest.raises(NotPositiveDefiniteError):
            build_ladder(ProblemInstance(EX1_A, -np.eye(2)), "lower", 2)


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
        rung = build_ladder(ProblemInstance(a), "lower", 2).matrices[index]
        expected = closed_form_bounds(a, which)
        assert np.linalg.norm(rung - expected, 2) <= 1e-14 * np.linalg.norm(expected, 2)

    @pytest.mark.parametrize("which,side,index", [
        ("S1", "lower", 0), ("S2", "lower", 1), ("S3", "lower", 2),
        ("R1", "upper", 0), ("R2", "upper", 1), ("R3", "upper", 2),
    ])
    def test_matches_ladder_rungs(self, rng, which, side, index):
        # pins the parity bookkeeping: a swapped conjugation would break this
        a = random_nonsingular_solvable(rng, 3)
        ladder = build_ladder(ProblemInstance(a), side, 3)
        assert np.allclose(
            closed_form_bounds(a, which), ladder.matrices[index], atol=1e-10
        )


class TestScalarOracle:
    @pytest.mark.parametrize("mag", [0.1, 0.3, 0.45])
    def test_continued_fraction(self, mag):
        a = mag * np.exp(0.7j) * np.eye(1)
        lower_oracle, upper_oracle = scalar_ladder(complex(a[0, 0]), 6)
        p = ProblemInstance(a)
        lower = build_ladder(p, "lower", 6)
        upper = build_ladder(p, "upper", 6)
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
            lower = build_ladder(p, "lower", 5)
            upper = build_ladder(p, "upper", 5)
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
            for rung in build_ladder(p, "lower", 5).matrices:
                assert min_eig(lo - rung) > 0.0
            for rung in build_ladder(p, "upper", 5).matrices:
                assert min_eig(rung - hi) > 0.0


class TestSandwichReport:
    def test_scalar_depth_four(self):
        report = sandwich(0.3 * np.eye(1), 4)
        s4 = report.lower.matrices[-1][0, 0].real
        r4 = report.upper.matrices[-1][0, 0].real
        assert s4 == pytest.approx(0.0999864517, abs=1e-9)
        assert r4 == pytest.approx(0.9000135483, abs=1e-9)
        assert s4 < 0.1 < 0.9 < r4
        assert report.lower_gap > 0.0
        assert report.upper_gap > 0.0
        assert report.consistent

    def test_example_depth_three(self):
        report = sandwich(EX1_A, 3)
        assert report.lower_gap > 0.0
        assert report.upper_gap > 0.0
        assert all(g >= -1e-9 for g in report.lower.monotone_gaps)
        assert all(g >= -1e-9 for g in report.upper.monotone_gaps)

    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_either_ladder_breakdown_raises_before_the_solves(self, monkeypatch, side):
        from conric import bounds

        monkeypatch.setattr(bounds, "solve_maximal", None)
        with pytest.raises(LadderBreakdown, match=f"^{side} ladder iterate 1 "):
            sandwich(ONE_SIDED_BREAKDOWN[side], 6)

    def test_zero_coefficient_refused(self):
        with pytest.raises(SingularCoefficient):
            sandwich(np.zeros((2, 2)), 3)

    def test_swapped_ladders_refused(self):
        p = ProblemInstance(EX1_A)
        lower, upper = build_ladder(p, "lower"), build_ladder(p, "upper")
        with pytest.raises(ValueError, match="expected the lower ladder, got the upper"):
            sandwich_report(p, upper, lower)
        with pytest.raises(ValueError, match="expected the upper ladder, got the lower"):
            sandwich_report(p, lower, lower)

    @pytest.mark.parametrize(
        "other",
        [
            ProblemInstance(0.9 * EX1_A),
            ProblemInstance(EX1_A, np.diag([2.0, 3.0])),
            ProblemInstance(np.zeros((3, 3))),
        ],
        ids=["coefficient", "q", "shape"],
    )
    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_ladders_of_another_instance_refused(self, other, side):
        p = ProblemInstance(EX1_A)
        ladders = {s: build_ladder(p, s) for s in ("lower", "upper")}
        ladders[side] = build_ladder(other, side)
        with pytest.raises(ValueError, match=f"{side} ladder was built on another coefficient"):
            sandwich_report(p, ladders["lower"], ladders["upper"])

    def test_ladders_of_an_equal_instance_accepted(self):
        # the check is bitwise on the unit coefficient, not on the instance object
        p, twin = ProblemInstance(EX1_A), ProblemInstance(EX1_A.copy())
        report = sandwich_report(p, build_ladder(twin, "lower"), build_ladder(twin, "upper"))
        assert report.consistent

    def test_consistency_scales_with_q(self, rng):
        # X(tA, tQ) = t X(A, Q), so the gaps' rounding grows with t; an absolute band of 1e-9
        # read every one of these draws inconsistent from t = 1e9 on
        for _ in range(8):
            a = random_with_norm(rng, 4, 0.3)
            for t in (1.0, 1e3, 1e6, 1e9, 1e12):
                p = ProblemInstance(t * a, t * np.eye(4))
                report = sandwich_report(p, build_ladder(p, "lower", 48), build_ladder(p, "upper", 48))
                assert report.consistent, (t, report.lower_gap, report.upper_gap)

    @pytest.mark.parametrize("scale", [1.0, 1e9])
    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_a_rung_past_its_solution_is_inconsistent(self, scale, side):
        # the last rung moved across its extremal solution by 10 times the band, or by a tenth of it
        p = ProblemInstance(scale * EX1_A, scale * np.eye(2))
        ladders = {s: build_ladder(p, s) for s in ("lower", "upper")}
        report = sandwich_report(p, ladders["lower"], ladders["upper"])
        assert report.consistent
        solution, sign = (report.x_minus, 1.0) if side == "lower" else (report.x_plus, -1.0)
        for shift, consistent in ((10.0, False), (0.1, True)):
            rung = solution + sign * shift * p.residual_bound * np.eye(2)
            ladder = ladders[side]
            ladders[side] = dataclasses.replace(ladder, matrices=ladder.matrices[:-1] + [rung])
            report = sandwich_report(p, ladders["lower"], ladders["upper"])
            assert report.consistent is consistent, (shift, report.lower_gap, report.upper_gap)
            ladders[side] = ladder

    def test_trend_reported(self, rng):
        a = random_nonsingular_solvable(rng, 2)
        report = sandwich(a, 6)
        assert len(report.lower_trend) == 2
        # deeper rungs move less
        assert report.lower_trend[-1] <= report.lower_trend[0] + 1e-12


def _relative(x, reference):
    return np.abs(x - reference).max() / np.abs(reference).max()


class TestExtremalPair:
    """The sandwich takes X+ and X- from one doubling run, and the solves only where it refuses."""

    @staticmethod
    def solvable(rng, family, n):
        if family == "non-normal":
            return ProblemInstance(random_non_normal(rng, n))
        u = random_unitary(rng, n)
        return ProblemInstance(random_solvable(rng, n), u @ np.diag(np.geomspace(1.0, 10.0, n)) @ u.conj().T)

    @pytest.mark.parametrize("family", ["q", "non-normal"])
    def test_matches_the_solves(self, rng, family):
        for n in [2, 3, 4, 6] * 5:
            p = self.solvable(rng, family, n)
            assert _extremal_pair(p) is not None
            report = sandwich_report(p, build_ladder(p, "lower"), build_ladder(p, "upper"))
            assert _relative(report.x_plus, solve_maximal(p).solution) <= 1e-12
            assert _relative(report.x_minus, solve_minimal(p).solution) <= 1e-12

    def test_near_critical_matches_the_closed_form(self, rng):
        # near the boundary the loop stops about stop_rel r^2 / (1 - r^2) from the solution
        # (up to 3.9e-12 on these draws), while doubling steps onto it (3.2e-14): so the closed
        # form is the tight oracle, and the solves agree only to their stopping error
        for _ in range(10):
            a, x_plus, x_minus = near_critical_solutions(rng)
            p = ProblemInstance(a)
            report = sandwich(a, 6)
            assert _relative(report.x_plus, x_plus) <= 1e-12
            assert _relative(report.x_minus, x_minus) <= 1e-12
            assert _relative(report.x_plus, solve_maximal(p).solution) <= 1e-11
            assert _relative(report.x_minus, solve_minimal(p).solution) <= 1e-11

    def test_needs_no_solve(self, rng, monkeypatch):
        from conric import bounds

        def refuse(p):
            raise AssertionError("the sandwich ran a solve")

        monkeypatch.setattr(bounds, "solve_maximal", refuse)
        monkeypatch.setattr(bounds, "solve_minimal", refuse)
        report = sandwich(random_nonsingular_solvable(rng, 3), 6)
        assert report.consistent

    def test_capped_pair_falls_back_to_the_solves(self, rng):
        # the loops stop within max_iter, but the pair's last step is iterate 2^j - 1 > max_iter
        a = near_critical(rng)
        assert _extremal_pair(ProblemInstance(a)) is not None
        iterations = [solve(ProblemInstance(a)).iterations for solve in (solve_maximal, solve_minimal)]
        p = ProblemInstance(a, tol=Tolerances(max_iter=max(iterations)))
        assert _extremal_pair(p) is None
        report = sandwich_report(p, build_ladder(p, "lower"), build_ladder(p, "upper"))
        assert np.array_equal(report.x_plus, solve_maximal(p).solution)
        assert np.array_equal(report.x_minus, solve_minimal(p).solution)
