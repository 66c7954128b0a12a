import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conric.embedding import (
    NotHeartStructuredError,
    co_spectral_radius_vs_one,
    e_matrix,
    heart,
    heart_structure_drift,
    is_con_normal,
    lozenge,
    p_matrix,
    unheart,
)
from conric.kernel import (
    DimensionError,
    adjoint,
    conj,
    is_positive_definite,
    mat_inverse,
    op_norm_2,
    psd_sqrt,
    spectral_radius,
    transpose,
)
from helpers import EX1_A, EX1_X_PLUS, random_complex, random_hermitian, random_psd

dims = st.integers(min_value=1, max_value=6)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


def sampled(seed, n, m=None):
    return random_complex(np.random.default_rng(seed), n, m)


class TestHeart:
    def test_imaginary_unit(self):
        assert np.allclose(heart([[1j]]), [[0.0, -1.0], [1.0, 0.0]])

    def test_identity(self):
        assert np.allclose(heart(np.eye(3)), np.eye(6))

    def test_zero_imaginary_part(self, rng):
        h = heart(random_complex(rng, 3, 4))
        assert np.all(h.imag == 0.0)
        assert h.shape == (6, 8)

    @given(seeds, dims, dims, dims)
    def test_multiplicative(self, seed, n, m, p):
        gen = np.random.default_rng(seed)
        a = random_complex(gen, n, m)
        b = random_complex(gen, m, p)
        assert np.allclose(heart(a @ b), heart(a) @ heart(b), atol=1e-10)


class TestLozenge:
    def test_imaginary_unit(self):
        assert np.allclose(lozenge([[1j]]), [[1.0, 0.0], [0.0, -1.0]])

    def test_identity_gives_swap(self):
        assert np.allclose(lozenge(np.eye(1)), [[0.0, 1.0], [1.0, 0.0]])

    @given(seeds, dims, dims)
    def test_is_swap_times_heart(self, seed, n, m):
        a = sampled(seed, n, m)
        assert np.allclose(lozenge(a), e_matrix(n) @ heart(a), atol=1e-12)


class TestFixedMatrices:
    def test_swap_matrix(self):
        assert np.allclose(e_matrix(1), [[0.0, 1.0], [1.0, 0.0]])

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_both_unitary(self, n):
        for u in (e_matrix(n), p_matrix(n)):
            assert op_norm_2(u @ adjoint(u) - np.eye(2 * n)) <= 1e-14

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_p_conjugation_fixes_swap(self, n):
        p = p_matrix(n)
        e = e_matrix(n)
        assert np.allclose(adjoint(p) @ e @ p, e, atol=1e-14)


class TestUnheart:
    def test_identity(self):
        assert np.allclose(unheart(np.eye(6)), np.eye(3))

    @given(seeds, dims)
    def test_round_trip(self, seed, n):
        m = sampled(seed, n)
        assert np.allclose(unheart(heart(m)), m, atol=1e-12)

    @given(seeds, dims)
    def test_heart_of_unheart(self, seed, n):
        w = heart(sampled(seed, n))
        assert np.allclose(heart(unheart(w)), w, atol=1e-12)

    def test_rejects_unstructured(self):
        with pytest.raises(NotHeartStructuredError):
            unheart(np.array([[1.0, 0.0], [0.0, 2.0]]))

    def test_rejects_odd_dimension(self):
        with pytest.raises(DimensionError):
            unheart(np.eye(3))

    def test_example_extraction(self):
        assert np.allclose(unheart(heart(EX1_X_PLUS)), EX1_X_PLUS, atol=1e-14)

    def test_drift_measured(self):
        w = heart(EX1_A) + 1e-6 * np.eye(4)
        # diagonal perturbation keeps the block pattern
        assert heart_structure_drift(w) <= 1e-12
        w[0, 1] += 1e-6
        assert heart_structure_drift(w) > 1e-7


class TestConNormal:
    def test_diagonal(self):
        ok, margin = is_con_normal(np.diag([0.3, 0.4j]))
        assert ok and margin > 0.0

    def test_real_normal(self):
        ok, _ = is_con_normal(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert ok

    def test_jordan_block_is_not(self):
        ok, margin = is_con_normal(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert not ok and margin < 0.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("t", [1e-300, 1e-200, 1e-6, 1.0, 1e200, 1e300])
    def test_the_verdict_does_not_depend_on_the_scale(self, t):
        # the defect is compared with HEART_RTOL ||A||^2, on A scaled by an exact power of two
        assert not is_con_normal(t * np.array([[0.3, 0.2], [0.0, 0.1]])).ok
        ok, margin = is_con_normal(t * np.diag([0.3, 0.2j]))
        assert ok and margin >= 0.0


class TestCoSpectralThreshold:
    def test_identity_is_at(self):
        ordering, value = co_spectral_radius_vs_one(np.eye(2))
        assert ordering == "at"
        assert value == pytest.approx(1.0, abs=1e-8)

    def test_scaled_imaginary_identity_below(self):
        ordering, value = co_spectral_radius_vs_one(0.5j * np.eye(2))
        assert ordering == "below"
        assert value == pytest.approx(0.25, abs=1e-8)

    @pytest.mark.filterwarnings("error")
    def test_a_product_beyond_the_largest_float_reads_inf(self):
        # a finite input is never refused as a non-finite one: its square is formed scaled, then scaled back
        big = 1e160 * np.array([[0.3, 0.2], [0.1, 0.4j]])
        assert co_spectral_radius_vs_one(big) == ("above", np.inf)
        assert co_spectral_radius_vs_one(2.0**-500 * np.eye(2)) == ("below", 2.0**-1000)

    def test_band_is_the_condition_layers_band(self):
        from conric import conditions, kernel

        assert conditions.BAND is kernel.BAND
        for rho, expected in [
            (1.0 - 2.0 * kernel.BAND, "below"),
            (1.0 - kernel.BAND / 2.0, "at"),
            (1.0 + kernel.BAND / 2.0, "at"),
            (1.0 + 2.0 * kernel.BAND, "above"),
        ]:
            assert co_spectral_radius_vs_one(np.sqrt(rho) * np.eye(1))[0] == expected

    def test_extremal_solution_classifies_below_or_at(self):
        m = mat_inverse(conj(EX1_X_PLUS)) @ EX1_A
        ordering, value = co_spectral_radius_vs_one(m)
        assert ordering in ("below", "at")
        assert value <= 1.0 + 1e-8


class TestOperatorIdentitySuite:
    """The full algebra-preservation suite on random instances."""

    @given(seeds, dims, dims)
    def test_structural_identities(self, seed, n, m):
        gen = np.random.default_rng(seed)
        a = random_complex(gen, n, m)
        ah = heart(a)
        assert np.allclose(heart(transpose(a)), e_matrix(m) @ ah.T @ e_matrix(n), atol=1e-10)
        assert np.allclose(heart(adjoint(a)), ah.T, atol=1e-10)
        assert np.allclose(heart(conj(a)), e_matrix(n) @ ah @ e_matrix(m), atol=1e-10)
        assert np.allclose(lozenge(a), e_matrix(n) @ ah, atol=1e-10)

    @given(seeds, dims)
    def test_inverse_identity(self, seed, n):
        a = sampled(seed, n) + 3.0 * np.eye(n)
        assert np.allclose(
            heart(mat_inverse(a)), mat_inverse(heart(a)), atol=1e-8
        )

    @given(seeds, dims, dims)
    def test_block_diagonalization(self, seed, n, m):
        a = sampled(seed, n, m)
        diag = np.zeros((2 * n, 2 * m), dtype=np.complex128)
        diag[:n, :m] = a
        diag[n:, m:] = conj(a)
        assert np.allclose(
            heart(a), p_matrix(n) @ diag @ adjoint(p_matrix(m)), atol=1e-10
        )

    @given(seeds, dims)
    def test_pd_equivalence(self, seed, n):
        h = random_hermitian(np.random.default_rng(seed), n)
        assert is_positive_definite((h + h.conj().T) / 2).ok == is_positive_definite(
            (heart(h) + heart(h).conj().T) / 2
        ).ok

    @given(seeds, dims)
    def test_spectral_radius_identities(self, seed, n):
        a = sampled(seed, n)
        assert spectral_radius(heart(a)) == pytest.approx(
            spectral_radius(a), rel=1e-6, abs=1e-6
        )
        assert spectral_radius(lozenge(a)) == pytest.approx(
            np.sqrt(spectral_radius(a @ conj(a))), rel=1e-6, abs=1e-6
        )

    @given(seeds, dims, dims)
    def test_norm_identities(self, seed, n, m):
        a = sampled(seed, n, m)
        norm = op_norm_2(a)
        assert op_norm_2(heart(a)) == pytest.approx(norm, abs=1e-10 * max(1, norm))
        assert op_norm_2(lozenge(a)) == pytest.approx(norm, abs=1e-10 * max(1, norm))

    @given(seeds, dims)
    def test_sqrt_commutes_with_heart(self, seed, n):
        h = random_psd(np.random.default_rng(seed), n)
        scale = max(1.0, np.linalg.norm(h))
        assert np.allclose(
            psd_sqrt(heart(h)), heart(psd_sqrt(h)), atol=1e-9 * scale
        )

    @given(seeds, dims)
    def test_lozenge_gram_identities(self, seed, n):
        a = sampled(seed, n)
        loz = lozenge(a)
        assert np.allclose(loz.T @ loz, heart(adjoint(a) @ a), atol=1e-10)
        assert np.allclose(loz @ loz.T, heart(conj(a @ adjoint(a))), atol=1e-10)

    @given(seeds, dims)
    def test_normality_transfers(self, seed, n):
        a = sampled(seed, n)
        direct = op_norm_2(adjoint(a) @ a - a @ adjoint(a))
        embedded = op_norm_2(heart(a).T @ heart(a) - heart(a) @ heart(a).T)
        assert direct == pytest.approx(embedded, abs=1e-10 * max(1.0, direct))
