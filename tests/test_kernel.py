import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import conric
from conric.embedding import lozenge
from conric.kernel import (
    ConricError,
    DimensionError,
    NonFiniteMatrixError,
    NotHermitianError,
    NotPositiveDefiniteError,
    PD_FLOOR,
    STOP_REL,
    SingularMatrixError,
    Tolerances,
    _cholesky_lower,
    _lapack,
    adjoint,
    cholesky_solve,
    cmatrix,
    conj,
    hermitian_eigen,
    hermitian_norm_2,
    is_positive_definite,
    mat_inverse,
    mat_mul,
    numerical_radius,
    op_norm_2,
    pd_cholesky,
    pd_solve,
    psd_sqrt,
    spectral_radius,
    transpose,
)
from helpers import (
    EX1_A,
    EX1_AAH_EIGS,
    EX1_NORM,
    cholesky_pivot_loop,
    numerical_radius_loop,
    random_complex,
    random_hermitian,
    random_psd,
    random_unitary,
)

dims = st.integers(min_value=1, max_value=5)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


def sampled(seed, n, m=None):
    return random_complex(np.random.default_rng(seed), n, m)


class TestConstructor:
    def test_accepts_nested_lists(self):
        a = cmatrix([[1, 2], [3, 4]])
        assert a.dtype == np.complex128
        assert a.shape == (2, 2)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            cmatrix([[np.inf, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            cmatrix([[np.nan * 1j, 0.0], [0.0, 1.0]])

    def test_rejects_wrong_rank(self):
        with pytest.raises(DimensionError):
            cmatrix([1.0, 2.0])


GOOD = np.array([[0.5, 0.1j], [-0.1j, 0.5]])

# every public function that takes a matrix, called with ``bad`` in one matrix argument
PUBLIC_MATRIX_CALLS = {
    "cmatrix": cmatrix,
    "mat_mul(a, .)": lambda bad: mat_mul(GOOD, bad),
    "mat_mul(., b)": lambda bad: mat_mul(bad, GOOD),
    "mat_inverse": mat_inverse,
    "conj": conj,
    "transpose": transpose,
    "adjoint": adjoint,
    "hermitian_eigen": hermitian_eigen,
    "op_norm_2": op_norm_2,
    "spectral_radius": spectral_radius,
    "numerical_radius": numerical_radius,
    "psd_sqrt": psd_sqrt,
    "is_positive_definite": is_positive_definite,
    "pd_cholesky": pd_cholesky,
    "pd_solve(h, .)": lambda bad: pd_solve(bad, GOOD),
    "pd_solve(., b)": lambda bad: pd_solve(GOOD, bad),
    "cholesky_solve(lower, .)": lambda bad: cholesky_solve(bad, GOOD),
    "cholesky_solve(., b)": lambda bad: cholesky_solve(np.eye(2), bad),
    "heart": conric.heart,
    "lozenge": conric.lozenge,
    "unheart": conric.unheart,
    "heart_structure_drift": conric.heart_structure_drift,
    "is_con_normal": conric.is_con_normal,
    "co_spectral_radius_vs_one": conric.co_spectral_radius_vs_one,
    "check_existence": conric.check_existence,
    "con_normal_closed_form": conric.con_normal_closed_form,
    "closed_form_bounds": lambda bad: conric.closed_form_bounds(bad, "R1"),
    "build_ladder": lambda bad: conric.build_ladder(conric.ProblemInstance(bad), "lower"),
    "ProblemInstance(a)": conric.ProblemInstance,
    "ProblemInstance(., q)": lambda bad: conric.ProblemInstance(GOOD, bad),
    "standard_solve_maximal": conric.standard_solve_maximal,
    "residual": lambda bad: conric.residual(bad, conric.ProblemInstance(GOOD)),
    "extremality_check": lambda bad: conric.extremality_check(bad, conric.ProblemInstance(GOOD), "maximal"),
}


class TestNonFinite:
    # a NaN or an infinity is refused where a public function takes the matrix, as a ValueError,
    # instead of passing the Hermitian and pivot tests, whose comparisons are all False on NaN

    @pytest.mark.parametrize(
        "bad",
        [
            [[1.0, math.nan], [math.nan, 1.0]],
            np.full((2, 2), math.nan),
            [[math.inf, 0.0], [0.0, 1.0]],
            [[1.0, 0.0], [0.0, -math.inf]],
            [[1.0, complex(0.0, math.nan)], [complex(0.0, math.nan), 1.0]],
        ],
        ids=["nan", "all-nan", "inf", "-inf", "imag-nan"],
    )
    @pytest.mark.parametrize("call", PUBLIC_MATRIX_CALLS.values(), ids=PUBLIC_MATRIX_CALLS.keys())
    def test_refused(self, call, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteMatrixError, match="matrix entries must be finite") as info:
                call(bad)
        assert isinstance(info.value, ValueError) and isinstance(info.value, ConricError)


class TestTolerances:
    def test_defaults_valid(self):
        tol = Tolerances()
        assert PD_FLOOR == 1e-12 and STOP_REL == 1e-13
        assert tol.max_iter == 100_000

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"residual_tol": -1e-3},
            {"residual_tol": 0.0},
            {"max_iter": 0},
            {"residual_tol": math.nan},
            {"residual_tol": math.inf},
            {"residual_tol": -math.inf},
            {"max_iter": math.nan},
            {"max_iter": 2.5},
            {"max_iter": 100.0},
            {"max_iter": True},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            Tolerances(**kwargs)

    def test_numpy_integer_max_iter_becomes_int(self):
        tol = Tolerances(max_iter=np.int64(8))
        assert type(tol.max_iter) is int and tol.max_iter.bit_length() == 4

    def test_the_pivot_floor_is_not_a_setting(self):
        # nor is the stop rule: Tolerances holds exactly what --tol and --max-iter set
        assert [f.name for f in dataclasses.fields(Tolerances)] == ["residual_tol", "max_iter"]
        for name in ("pd_floor", "stop_rel"):
            with pytest.raises(TypeError):
                Tolerances(**{name: 1e-12})


def test_one_pivot_floor_decides_every_test(monkeypatch):
    # every decision reads kernel.PD_FLOOR when it runs, so no module may bind a copy of it:
    # at a floor of 0.9 each of these flips, and a copy would keep deciding at 1e-12
    import conric.kernel as kernel_mod
    import conric.solver as solver_mod

    h, a, q = np.diag([1.0, 0.3]), np.diag([0.3, 0.1]), np.diag([1.0, 0.5])
    # the upper ladder's y_1 = diag(0.7975, 1) has pivot margin 0.89
    c = np.diag([0.45, 0.0])

    def decisions():
        p = conric.ProblemInstance(a)
        try:
            minimal = conric.solve_minimal(p).kind
        except conric.SingularCoefficient:
            minimal = None
        try:
            closed_form = conric.con_normal_closed_form(a, "minimal") is not None
        except conric.SingularCoefficient:
            closed_form = False
        try:
            inverse = mat_inverse(h) is not None
        except SingularMatrixError:
            inverse = False
        try:
            conric.ProblemInstance(a, q)
            q_accepted = True
        except NotPositiveDefiniteError:
            q_accepted = False
        return {
            "is_positive_definite": is_positive_definite(h).ok,
            "mat_inverse": inverse,
            "solve_minimal": minimal,
            "closed_form_minimal": closed_form,
            "q": q_accepted,
            "truncated_at": conric.build_ladder(conric.ProblemInstance(c), "upper", 4).truncated_at,
        }

    assert decisions() == {
        "is_positive_definite": True,
        "mat_inverse": True,
        "solve_minimal": "minimal",
        "closed_form_minimal": True,
        "q": True,
        "truncated_at": None,
    }
    monkeypatch.setattr(kernel_mod, "PD_FLOOR", 0.9)

    def tail(*args):
        raise AssertionError("solve_minimal's own floor test let Y- through to the tail's factor")

    # the tail factors the same Y-, so it must not get the chance to refuse it in its place
    monkeypatch.setattr(solver_mod, "_tail", tail)
    assert decisions() == {
        "is_positive_definite": False,
        "mat_inverse": False,
        "solve_minimal": None,
        "closed_form_minimal": False,
        "q": False,
        "truncated_at": 2,
    }


def test_one_stop_rule_decides_every_loop(monkeypatch):
    # every stopping test reads kernel.STOP_REL when it runs, so no module may bind a copy of it:
    # at a threshold of 1e-4 each one stops sooner, and a copy would keep stopping at 1e-13
    import conric.kernel as kernel_mod
    import conric.solver as solver_mod

    doubling = solver_mod._doubling_iterates
    steps = []

    def counted(a, conjugate):
        steps.append(0)
        for pair in doubling(a, conjugate):
            steps[-1] += 1
            yield pair

    monkeypatch.setattr(solver_mod, "_doubling_iterates", counted)
    b = np.array([[0.3, 0.1j], [0.05, -0.2]])

    def stops():
        steps.clear()
        solver_mod._extremal_pair(conric.ProblemInstance(b))
        return {
            "generic": solver_mod._fixed_point_generic(b, Tolerances())[1],
            "scalar": solver_mod._fixed_point_scalar(np.array([[0.45]]), Tolerances())[1],
            "doubling": conric.standard_solve_maximal(b).iterations,
            "pair": steps[0],
        }

    before = stops()
    monkeypatch.setattr(kernel_mod, "STOP_REL", 1e-4)
    after = stops()
    assert [name for name in before if not after[name] < before[name]] == [], (before, after)


class TestMatMul:
    def test_identity(self, rng):
        m = random_complex(rng, 3)
        assert np.allclose(mat_mul(np.eye(3), m), m)

    def test_imaginary_unit_squares_to_minus_one(self):
        j = cmatrix([[1j]])
        assert np.allclose(mat_mul(j, j), [[-1.0]])

    def test_example_gram(self):
        expected = np.array(
            [[0.1875, -0.125 + 0.125j], [-0.125 - 0.125j, 0.1875]]
        )
        assert np.allclose(mat_mul(EX1_A, adjoint(EX1_A)), expected, atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            mat_mul(np.eye(2), np.eye(3))


class TestMatInverse:
    def test_identity(self):
        assert np.allclose(mat_inverse(np.eye(4)), np.eye(4))

    def test_diagonal_reciprocals(self):
        inv = mat_inverse(np.diag([2.0, 1j]))
        assert np.allclose(inv, np.diag([0.5, -1j]))

    def test_example_matrix_residual(self):
        inv = mat_inverse(EX1_A)
        assert op_norm_2(EX1_A @ inv - np.eye(2)) <= 1e-12

    def test_singular_to_tolerance(self):
        with pytest.raises(SingularMatrixError):
            mat_inverse(np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(SingularMatrixError):
            mat_inverse(np.zeros((2, 2)))
        # rank 2, not Hermitian: the third row is the first plus 1j times the second
        with pytest.raises(SingularMatrixError):
            mat_inverse(np.array([[1.0, 2j, 0.5], [0.3j, 1.0, -1.0], [0.7, 3j, 0.5 - 1j]]))

    def test_singular_means_sigma_min_below_floor(self):
        # the floor is PD_FLOOR * sigma_max
        with pytest.raises(SingularMatrixError):
            mat_inverse(np.diag([1.0, 1e-13]))
        assert np.allclose(mat_inverse(np.diag([1.0, 1e-11])), np.diag([1.0, 1e11]))

    @given(seeds, dims)
    def test_left_and_right_inverse(self, seed, n):
        a = sampled(seed, n) + 3.0 * np.eye(n)
        inv = mat_inverse(a)
        assert op_norm_2(a @ inv - np.eye(n)) < 1e-10
        assert op_norm_2(inv @ a - np.eye(n)) < 1e-10


class TestEntrywiseOps:
    def test_conj_scalar(self):
        assert np.allclose(conj([[1 + 2j]]), [[1 - 2j]])

    def test_adjoint_example(self):
        expected = np.array(
            [[0.25 - 0.25j, 0.25j], [-0.25j, 0.25 + 0.25j]]
        )
        assert np.allclose(adjoint(EX1_A), expected)

    @given(seeds, dims, dims)
    def test_transpose_of_adjoint_is_conj(self, seed, n, m):
        a = sampled(seed, n, m)
        assert np.array_equal(transpose(adjoint(a)), conj(a))


class TestHermitianEigen:
    def test_identity(self):
        w, v = hermitian_eigen(np.eye(3))
        assert np.allclose(w, [1.0, 1.0, 1.0])
        assert np.allclose(v @ v.conj().T, np.eye(3))

    def test_swap_matrix(self):
        w, _ = hermitian_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(w, [-1.0, 1.0])

    def test_example_gram_eigenvalues(self):
        w, _ = hermitian_eigen(EX1_A @ adjoint(EX1_A))
        assert np.allclose(w, EX1_AAH_EIGS, atol=1e-6)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("t", [1e-300, 1e-200, 1e200, 1e300])
    def test_the_hermitian_test_holds_at_any_scale(self, t):
        # the relative Frobenius rule neither overflows nor underflows
        h = np.array([[2.0, 0.5j], [-0.5j, 3.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.allclose(hermitian_eigen(t * h)[0] / t, [1.7928932188134525, 3.2071067811865475])
            with pytest.raises(NotHermitianError):
                hermitian_eigen(t * np.array([[0.0, 1.0], [0.0, 0.0]]))

    @given(seeds, dims)
    def test_reconstruction_and_unitarity(self, seed, n):
        h = random_hermitian(np.random.default_rng(seed), n)
        w, v = hermitian_eigen(h)
        scale = max(np.linalg.norm(h), 1e-30)
        assert np.linalg.norm((v * w) @ v.conj().T - h) <= 1e-10 * scale
        assert np.linalg.norm(v.conj().T @ v - np.eye(n)) <= 1e-10


class TestOpNorm:
    def test_identity(self):
        assert op_norm_2(np.eye(5)) == pytest.approx(1.0, abs=1e-12)

    def test_example_norm(self):
        assert op_norm_2(EX1_A) == pytest.approx(EX1_NORM, abs=1e-9)

    def test_diagonal_moduli(self):
        assert op_norm_2(np.diag([0.3, 0.4j])) == pytest.approx(0.4, abs=1e-12)

    @given(seeds, dims)
    def test_unitary_invariance(self, seed, n):
        gen = np.random.default_rng(seed)
        m = random_complex(gen, n)
        u = random_unitary(gen, n)
        v = random_unitary(gen, n)
        assert op_norm_2(u @ m @ v) == pytest.approx(op_norm_2(m), abs=1e-10)

    @given(seeds, dims, dims)
    def test_matches_numpy_on_rectangular(self, seed, n, m):
        a = sampled(seed, n, m)
        assert op_norm_2(a) == pytest.approx(np.linalg.norm(a, 2), abs=1e-10)

    @pytest.mark.parametrize("t", [1e-300, 1e-170, 1e155, 1e300])
    def test_scales_with_the_matrix(self, t):
        # entries beyond the safe range are scaled by a power of two, so the Gram neither overflows nor underflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert op_norm_2(t * EX1_A) == pytest.approx(t * op_norm_2(EX1_A), rel=1e-14, abs=0.0)
            assert op_norm_2(t * np.eye(2)) == t
            assert op_norm_2(2.0**-1074 * np.eye(2)) == 2.0**-1074

    def test_a_norm_beyond_the_largest_float_is_inf(self):
        assert op_norm_2(np.full((2, 2), 1e308)) == math.inf

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("k", [250, -250, 300, -300, 480, -490, 600, -600, 1000, -1000])
    def test_a_power_of_two_scales_the_norm_exactly(self, k):
        # neither the matrix nor its Gram reaches LAPACK's own rescaling, whose factors are not powers of two
        a = random_complex(np.random.default_rng(5), 3)
        assert op_norm_2(2.0**k * a) == 2.0**k * op_norm_2(a)


class TestHermitianNorm:
    # the solver's change, ||W|| and defect norms: eigvalsh of the matrix itself
    @staticmethod
    def exactly_hermitian(rng, n, kind):
        if kind == "psd":
            h = random_psd(rng, n)
        elif kind == "negative-end":
            # eigenvalues -1 .. 1/2, so |lambda_min| > lambda_max sets the norm
            u = random_unitary(rng, n)
            h = (u * np.linspace(-1.0, 0.5, n)) @ u.conj().T
        else:
            h = random_hermitian(rng, n)
        return (h + h.conj().T) / 2.0

    @pytest.mark.parametrize("kind", ["psd", "negative-end", "indefinite"])
    @pytest.mark.parametrize("n", range(1, 17))
    def test_matches_op_norm(self, rng, n, kind):
        h = self.exactly_hermitian(rng, n, kind)
        assert hermitian_norm_2(h) == pytest.approx(op_norm_2(h), rel=1e-14)
        if kind == "negative-end":
            w = np.linalg.eigvalsh(h)
            assert -w[0] > w[-1]
            assert hermitian_norm_2(h) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    def test_zero_matrix(self, n):
        norm = hermitian_norm_2(np.zeros((n, n), dtype=np.complex128))
        assert norm == 0.0 and math.copysign(1.0, norm) == 1.0
        assert op_norm_2(np.zeros((n, n))) == 0.0


class TestSpectralRadius:
    def test_identity(self):
        assert spectral_radius(np.eye(3)) == pytest.approx(1.0, abs=1e-8)

    def test_nilpotent(self):
        assert spectral_radius(np.array([[0.0, 2.0], [0.0, 0.0]])) == 0.0

    def test_diagonal(self):
        assert spectral_radius(np.diag([0.3, -0.5])) == pytest.approx(0.5, abs=1e-8)

    @given(seeds, dims)
    def test_matches_eigenvalue_oracle(self, seed, n):
        a = sampled(seed, n)
        oracle = max(abs(np.linalg.eigvals(a)))
        assert spectral_radius(a) == pytest.approx(oracle, rel=1e-6, abs=1e-6)

    @given(seeds, dims)
    def test_bounded_by_norm(self, seed, n):
        a = sampled(seed, n)
        assert spectral_radius(a) <= op_norm_2(a) + 1e-8

    @pytest.mark.parametrize("n", [3, 6, 12])
    def test_non_normal_unit_modulus_spectrum(self, rng, n):
        # S T S^-1 with T upper triangular and distinct unit-modulus diagonal:
        # powers neither grow nor settle, which norm-based estimates resolve
        # only to about 1e-8
        t = np.triu(random_complex(rng, n), 1) + np.diag(
            np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=n))
        )
        s = random_unitary(rng, n) @ np.diag(rng.uniform(1.0, 2.0, size=n)) @ random_unitary(rng, n)
        m = s @ t @ np.linalg.inv(s)
        oracle = float(np.abs(np.linalg.eigvals(m)).max())
        assert spectral_radius(m) == pytest.approx(oracle, rel=1e-12)


class TestNumericalRadius:
    def test_identity(self):
        assert numerical_radius(np.eye(2)) == pytest.approx(1.0, abs=1e-9)

    def test_jordan_block(self):
        # classical value for the 2x2 nilpotent Jordan block
        assert numerical_radius(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(
            0.5, abs=1e-8
        )

    def test_normal_matrix_equals_spectral_radius(self):
        assert numerical_radius(np.diag([0.2, -0.3])) == pytest.approx(0.3, abs=1e-9)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("k", [-1000, -600, -300, 300, 600, 1000])
    def test_any_finite_scale(self, k):
        # the level sets run on the matrix scaled by an exact power of two, and the radius is scaled back
        assert numerical_radius([[1e308]]) == 1e308
        a = random_complex(np.random.default_rng(5), 3)
        assert numerical_radius(2.0**k * a) == 2.0**k * numerical_radius(a)

    @given(seeds, dims)
    def test_classical_sandwich(self, seed, n):
        a = sampled(seed, n)
        omega = numerical_radius(a)
        norm = op_norm_2(a)
        assert omega <= norm + 1e-9
        assert norm <= 2.0 * omega + 1e-6

    @given(seeds, dims, st.floats(min_value=0.0, max_value=2.0 * math.pi))
    def test_invariances(self, seed, n, phi):
        gen = np.random.default_rng(seed)
        a = random_complex(gen, n)
        u = random_unitary(gen, n)
        omega = numerical_radius(a)
        assert numerical_radius(np.exp(1j * phi) * a) == pytest.approx(omega, rel=1e-10)
        assert numerical_radius(u @ a @ u.conj().T) == pytest.approx(omega, rel=1e-10)
        assert numerical_radius(a.T) == pytest.approx(omega, rel=1e-10)

    @pytest.mark.parametrize("grid", [10, 1022, 1024])
    def test_grid_spacing_and_reach(self, grid):
        # maximum at t = pi/2 only: the field of values is the segment [-i, i];
        # grids 10 and 1022 miss pi/2, so the oracle reaches it by refinement
        rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
        oracle = numerical_radius_loop(rot.astype(np.complex128), grid, 1e-12)
        assert oracle == pytest.approx(1.0, rel=1e-12)
        assert numerical_radius(rot) == pytest.approx(oracle, rel=1e-12)
        assert numerical_radius(rot * 1j) == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("profile", ["default", "strict"])
    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_matches_per_angle_loop_on_lozenges(self, profile, n):
        # the oracle grid the two profiles once tuned; the radius takes no tol
        grid, refine_tol = {"default": (1024, 1e-10), "strict": (4096, 1e-12)}[profile]
        gen = np.random.default_rng(1000 + n)
        for _ in range(2):
            loz = lozenge(random_complex(gen, n) * gen.uniform(0.1, 1.0))
            oracle = numerical_radius_loop(loz, grid, refine_tol)
            assert numerical_radius(loz) == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_matches_per_angle_loop_on_degenerate_matrices(self, n):
        gen = np.random.default_rng(2000 + n)
        column = np.zeros((n, n), dtype=np.complex128)
        column[:, 0] = random_complex(gen, n, 1)[:, 0]
        rank = max(n - 2, 1)
        cases = {
            "singular lozenge": lozenge(column),
            "rank deficient": random_complex(gen, n, rank) @ random_complex(gen, rank, n),
            "nilpotent": np.triu(random_complex(gen, n), 1),
            "hermitian": random_hermitian(gen, n),
            "one by one": random_complex(gen, 1),
            "zero": np.zeros((n, n)),
        }
        for name, a in cases.items():
            oracle = numerical_radius_loop(np.asarray(a, dtype=np.complex128))
            assert numerical_radius(a) == pytest.approx(oracle, rel=1e-12), name

    def test_cost_does_not_depend_on_where_the_maximum_lies(self, monkeypatch):
        # Newton steps reach the maximum before the level set runs, so one
        # companion eigenproblem usually certifies it, wherever it lies; when
        # the level rose only to the best midpoint, maxima off the 16 sample
        # angles took 3 to 5 of them
        calls = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda m: calls.append(m) or eigvals(m))
        gen = np.random.default_rng(11)
        counts = []
        for n in (2, 4, 8):
            for _ in range(10):
                a = random_complex(gen, n)
                for m in (a, lozenge(a)):
                    calls.clear()
                    omega = numerical_radius(m)
                    counts.append(len(calls))
                    assert omega == pytest.approx(numerical_radius_loop(m), rel=1e-12)
        assert max(counts) <= 2
        assert counts.count(1) >= 0.9 * len(counts)


class TestPsdSqrt:
    def test_identity(self):
        assert np.allclose(psd_sqrt(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        assert np.allclose(psd_sqrt(np.diag([4.0, 0.25])), np.diag([2.0, 0.5]))

    def test_zero_matrix(self):
        assert np.allclose(psd_sqrt(np.zeros((2, 2))), np.zeros((2, 2)))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            psd_sqrt(np.diag([1.0, -0.5]))

    @given(seeds, dims)
    def test_square_reproduces(self, seed, n):
        h = random_psd(np.random.default_rng(seed), n)
        root = psd_sqrt(h)
        assert np.linalg.norm(root @ root - h) <= 1e-9 * max(np.linalg.norm(h), 1e-30)


class TestPositiveDefinite:
    def test_identity_margin_one(self):
        ok, margin = is_positive_definite(np.eye(4))
        assert ok
        assert margin == pytest.approx(1.0, abs=1e-12)

    def test_detects_indefinite(self):
        ok, margin = is_positive_definite(np.diag([1.0, -0.1]))
        assert not ok
        assert margin < 0.0

    def test_example_solution_is_pd(self):
        from helpers import EX1_X_PLUS

        ok, margin = is_positive_definite(EX1_X_PLUS)
        assert ok
        assert margin > 0.0

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            is_positive_definite(np.array([[1.0, 1.0], [0.0, 1.0]]))

    @given(seeds, dims)
    def test_agrees_with_eigenvalues(self, seed, n):
        h = random_hermitian(np.random.default_rng(seed), n)
        shifted = h + (abs(np.linalg.eigvalsh(h)[0]) + 0.5) * np.eye(n)
        ok, margin = is_positive_definite(shifted)
        assert ok and margin > 0.0

    @pytest.mark.parametrize("n", range(1, 17))
    def test_lapack_factor_matches_pivot_loop(self, rng, n):
        for _ in range(5):
            h = random_psd(rng, n) + np.eye(n)
            expected, expected_margin = cholesky_pivot_loop(h)
            ok, margin = is_positive_definite(h)
            lower = pd_cholesky(h)
            assert ok
            assert margin == pytest.approx(expected_margin, rel=1e-12)
            assert np.abs(lower - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize(
        "h",
        [
            # trace/n is about 1/2, so the second pivot is (1 -+ 1e-3) times the floor
            np.diag([1.0, (1.0 - 1e-3) * 0.5e-12]),
            np.diag([1.0, (1.0 + 1e-3) * 0.5e-12]),
            np.array([[1.0, 1.0], [1.0, 1.0]]),
            np.diag([1.0, -0.1, 2.0]),
        ],
        ids=["below-floor", "above-floor", "singular-psd", "indefinite"],
    )
    def test_edge_cases_match_pivot_loop(self, h):
        lower, margin = cholesky_pivot_loop(h)
        assert tuple(is_positive_definite(h)) == (lower is not None, margin)

    @pytest.mark.parametrize(
        "h",
        [
            np.full((1, 1), np.nan),
            np.full((2, 2), np.nan),
            np.full((3, 3), np.nan),
            np.array([[1.0, np.nan], [np.nan, 1.0]]),
            np.diag([1.0, 1.0, np.nan]),
        ],
        ids=["all-1", "all-2", "all-3", "off-diagonal", "last-diagonal"],
    )
    def test_a_nan_pivot_is_refused_with_margin_nan(self, h):
        # a comparison with NaN is False, so a NaN pivot (or a NaN floor, from a NaN trace)
        # must be refused by the test it fails, and its margin must not read as inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lower, margin = _cholesky_lower(h.astype(np.complex128))
        assert lower is None
        assert math.isnan(margin)

    def test_definite_check_is_one_lapack_call(self, monkeypatch):
        import conric.kernel as kernel_mod

        factor_calls, loop_calls = [], []
        cholesky = _lapack.cholesky_lo
        pivots = kernel_mod._cholesky_pivots
        monkeypatch.setattr(_lapack, "cholesky_lo", lambda h, **kw: factor_calls.append(h) or cholesky(h, **kw))
        monkeypatch.setattr(
            kernel_mod, "_cholesky_pivots", lambda *args: loop_calls.append(args) or pivots(*args)
        )
        assert is_positive_definite(random_psd(np.random.default_rng(3), 6) + np.eye(6)).ok
        assert (len(factor_calls), len(loop_calls)) == (1, 0)
        assert not is_positive_definite(np.diag([1.0, -0.1])).ok
        assert (len(factor_calls), len(loop_calls)) == (2, 1)


def read_only(a: np.ndarray) -> np.ndarray:
    a = a.copy()
    a.flags.writeable = False
    return a


class TestDirectLapack:
    """The per-step factor and solve call np.linalg's gufuncs without its wrapper."""

    @staticmethod
    def problem(n: int, is_complex: bool) -> tuple[np.ndarray, np.ndarray]:
        gen = np.random.default_rng(100 + n)
        h, b = random_psd(gen, n) + np.eye(n), random_complex(gen, n)
        return (h, b) if is_complex else (h.real.copy(), b.real.copy())

    @pytest.mark.parametrize("is_complex", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("n", range(1, 17))
    def test_factor_is_numpy_linalg_cholesky(self, n, is_complex):
        h, _ = self.problem(n, is_complex)
        for matrix in (h, read_only(h)):
            lower, margin = _cholesky_lower(matrix)
            expected = np.linalg.cholesky(matrix)
            assert lower.dtype == expected.dtype and lower.tobytes() == expected.tobytes()
            assert margin > 0.0

    @pytest.mark.parametrize("is_complex", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("n", range(1, 17))
    def test_solve_is_numpy_linalg_solve(self, n, is_complex):
        # the callers' operands: conj(L), the doubling's [B, B*], read-only arrays and a transposed view
        h, b = self.problem(n, is_complex)
        lower = np.linalg.cholesky(h)
        for factor in (lower, np.conj(lower), read_only(lower), lower.conj().T):
            for rhs in (b, np.hstack([b, b.conj().T]), read_only(b), b.T):
                x, expected = _lapack.solve(factor, rhs), np.linalg.solve(factor, rhs)
                assert x.dtype == expected.dtype and x.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("is_complex", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    def test_a_refusal_keeps_its_margin_and_warns_nothing(self, n, is_complex):
        # LAPACK refuses these (np.linalg raises), so the refusal takes the NaN route
        h, _ = self.problem(n, is_complex)
        for shift in (1.0, 1.0 + 1e-9, 2.0):
            indefinite = h - shift * np.linalg.eigvalsh(h)[-1] * np.eye(n)
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.cholesky(indefinite)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                lower, margin = _cholesky_lower(indefinite)
            assert (lower, margin) == cholesky_pivot_loop(indefinite)
            assert lower is None and margin <= 0.0


class TestPdSolve:
    @given(seeds, dims, dims)
    def test_matches_direct_solve(self, seed, n, m):
        gen = np.random.default_rng(seed)
        h = random_psd(gen, n) + np.eye(n)
        b = random_complex(gen, n, m)
        x = pd_solve(h, b)
        assert np.linalg.norm(h @ x - b) <= 1e-9 * max(1.0, np.linalg.norm(b))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            pd_solve(np.diag([1.0, -1.0]), np.eye(2))


class TestCholeskySolve:
    @pytest.mark.parametrize("n, m", [(1, 1), (4, 4), (6, 2), (3, 7)])
    def test_matches_dense_solve(self, rng, n, m):
        lower = np.linalg.cholesky(random_psd(rng, n) + np.eye(n))
        b = random_complex(rng, n, m)
        expected = np.linalg.solve(lower @ lower.conj().T, b)
        assert np.allclose(cholesky_solve(lower, b), expected, rtol=1e-12, atol=1e-12)


def test_spectral_radius_defective_dominant():
    # large Jordan-type block: the norm overestimates badly, squaring fixes it
    a = np.array([[1.0, 1000.0], [0.0, 1.0]])
    assert spectral_radius(a) == pytest.approx(1.0, rel=1e-6)


def test_numerical_radius_shifted_rotation():
    theta = 0.7
    rot = np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )
    # normal matrix: numerical radius equals spectral radius equals 1
    assert numerical_radius(rot) == pytest.approx(1.0, abs=1e-8)
