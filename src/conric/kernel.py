"""Dense complex linear algebra kernel.

Matrices are numpy ``complex128`` arrays of shape ``(rows, cols)`` in row
major order.  :func:`cmatrix` is the validating constructor; every operation
treats its inputs as immutable and returns fresh arrays.  All spectral
quantities used elsewhere in the package (2-norm, spectral radius, numerical
radius, PSD square root, positive definiteness) live here.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# numpy.linalg's own gufuncs: np.linalg.cholesky and np.linalg.solve call exactly these LAPACK
# routines, so results are bitwise equal, but their per-call wrapper (type checks, an errstate,
# result wrapping) costs more than the LAPACK work on the small matrices of an iteration step.
# _cholesky_lower (one call per iteration step), the step's solve and the doubling call them;
# a refused factorisation comes back NaN instead of raising.
from numpy.linalg import _umath_linalg as _lapack


class ConricError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(ConricError):
    pass


class SingularMatrixError(ConricError):
    pass


class NotHermitianError(ConricError):
    pass


class NotPositiveDefiniteError(ConricError):
    pass


class NonFiniteMatrixError(ConricError, ValueError):
    """A matrix has a NaN or infinite entry; also a ValueError, which callers may catch."""


# Relative tolerance for treating a matrix as Hermitian.
HERMITIAN_RTOL = 1e-10
# The one classification band around every verdict threshold (1/4, 1/2, 1).
BAND = 1e-8
# Relative floor on the smallest eigenvalue accepted by psd_sqrt.
PSD_RTOL = 1e-10
# numerical_radius: the level sits this far (relative) above the best value
# found, a root y with |Im y| <= _REAL_ROOT_RTOL (1 + |y|) counts as real, and
# Newton steps in the angle use central differences over +-_NEWTON_STENCIL.
_LEVEL_NUDGE = 1e-14
_REAL_ROOT_RTOL = 1e-8
_NEWTON_STEPS = 8
_NEWTON_STENCIL = 1e-4
_NEWTON_STEP_TOL = 1e-9


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds shared by every module.

    pd_floor          relative pivot floor for positive definiteness checks
    stop_rel          relative iterate-change stopping threshold
    residual_tol      equation residual accepted as "solved", relative to
                      max(1, ||Q||) (ProblemInstance.residual_bound)
    max_iter          fixed point iteration cap

    The spectral and numerical radii take no tolerance: both come from
    LAPACK eigenvalue problems that are accurate to rounding.
    """

    pd_floor: float = 1e-12
    stop_rel: float = 1e-13
    residual_tol: float = 1e-9
    max_iter: int = 100_000

    def __post_init__(self) -> None:
        for name in ("pd_floor", "stop_rel", "residual_tol"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be strictly positive")
        integral = isinstance(self.max_iter, numbers.Integral) and not isinstance(self.max_iter, bool)
        if not integral or self.max_iter < 1:
            raise ValueError("max_iter must be an integer of at least 1")
        object.__setattr__(self, "max_iter", int(self.max_iter))


TOLERANCE_PROFILES = {
    "default": Tolerances(),
    "strict": Tolerances(
        pd_floor=1e-13,
        stop_rel=1e-14,
        residual_tol=1e-11,
        max_iter=200_000,
    ),
}

DEFAULT_TOLERANCES = TOLERANCE_PROFILES["default"]


class CheckResult(NamedTuple):
    """Boolean decision plus a signed margin (positive means the check holds)."""

    ok: bool
    margin: float


def cmatrix(entries) -> np.ndarray:
    """Validating constructor: array-like -> finite complex128 matrix, always a copy."""
    return _as_matrix(np.array(entries, dtype=np.complex128))


def _as_matrix(a) -> np.ndarray:
    """The one check of every matrix a public function takes: 2-d, not empty, finite."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise DimensionError(f"expected a 2-d matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NonFiniteMatrixError("matrix entries must be finite")
    return a


def _require_square(a, who: str) -> np.ndarray:
    a = _as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"{who} requires a square matrix, got {a.shape}")
    return a


def _require_hermitian(h, who: str) -> np.ndarray:
    h = _require_square(h, who)
    drift = np.linalg.norm(h - h.conj().T)
    if drift > HERMITIAN_RTOL * np.linalg.norm(h):
        raise NotHermitianError(f"{who}: matrix deviates from Hermitian by {drift:.3e}")
    return h


def mat_mul(a, b) -> np.ndarray:
    """Matrix product with an explicit inner-dimension check."""
    a = _as_matrix(a)
    b = _as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"cannot multiply {a.shape} by {b.shape}")
    return a @ b


def mat_inverse(a, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Inverse from LAPACK, refused for a matrix singular to tolerance.

    Raises SingularMatrixError when sigma_min <= pd_floor * sigma_max, the
    package's one definition of "singular to tolerance" (see _nonsingular).
    """
    a = _require_square(a, "mat_inverse")
    ok, smallest = _nonsingular(a, tol)
    if not ok:
        raise SingularMatrixError(
            f"singular to tolerance: smallest singular value {smallest:.3e}"
        )
    return np.linalg.inv(a)


def conj(a) -> np.ndarray:
    """Entrywise complex conjugate."""
    return np.conj(_as_matrix(a))


def transpose(a) -> np.ndarray:
    return _as_matrix(a).T.copy()


def adjoint(a) -> np.ndarray:
    """Conjugate transpose."""
    return _as_matrix(a).conj().T.copy()


def hermitian_eigen(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition h = V diag(w) V* of a Hermitian matrix.

    Returns eigenvalues ascending and a unitary eigenvector matrix.
    """
    h = _require_hermitian(h, "hermitian_eigen")
    w, v = np.linalg.eigh(h)
    return w, v


def op_norm_2(a) -> float:
    """Spectral norm: the root of the top eigenvalue (eigvalsh) of the symmetrised Gram a*a."""
    a = _as_matrix(a)
    gram = a.conj().T @ a
    w = np.linalg.eigvalsh((gram + gram.conj().T) / 2.0)
    return math.sqrt(max(float(w[-1]), 0.0))


def hermitian_norm_2(h: np.ndarray) -> float:
    """Spectral norm max |lambda| of an exactly Hermitian h (eigvalsh reads one triangle)."""
    w = np.linalg.eigvalsh(h)
    return max(abs(float(w[0])), abs(float(w[-1])))


def hermitian_norms_2(stack: np.ndarray) -> list[float]:
    """hermitian_norm_2 of each matrix of a stack, from one stacked eigvalsh.

    The stacked call runs the same LAPACK routine on each matrix, so every
    norm is bitwise the one hermitian_norm_2 returns.
    """
    w = np.linalg.eigvalsh(stack)
    return np.maximum(np.abs(w[:, 0]), np.abs(w[:, -1])).tolist()


def spectral_radius(a) -> float:
    """Largest eigenvalue modulus, from LAPACK's nonsymmetric eigensolver."""
    a = _require_square(a, "spectral_radius")
    return float(np.abs(np.linalg.eigvals(a)).max())


def numerical_radius(a) -> float:
    """max over angles t of the top eigenvalue of H(t) = cos(t) S + sin(t) K.

    S = (a + a*)/2 and K = i(a - a*)/2.  Level sets in Cayley form (Mengi &
    Overton, IMA J. Numer. Anal. 2005): with t = t0 + 2 arctan(y), H(t) has
    the eigenvalue s exactly when y is a real root of (H0 + sI) y^2 +
    2 K0 y - (H0 - sI), where H0 = H(t0) and K0 = sin(t0) S - cos(t0) K.
    The centre t0 maximises lambda_min(H) over 16 samples on the circle, so
    H0 + sI is positive definite and its Cholesky factor turns the quadratic
    into one eigvals call on a companion matrix.  Each level is a local
    maximum, climbed by Newton steps from the best sample and then from the
    best midpoint between crossings, until no midpoint beats the level;
    usually one companion solve certifies the first.
    """
    a = _require_square(a, "numerical_radius")
    scale = float(np.abs(a).max())
    if scale == 0.0:
        return 0.0
    sym = (a + a.conj().T) / 2.0
    skew = 1j * (a - a.conj().T) / 2.0
    stencil = np.array([-_NEWTON_STENCIL, 0.0, _NEWTON_STENCIL])

    def top(angles: np.ndarray) -> np.ndarray:
        t = angles[:, None, None]
        return np.linalg.eigvalsh(np.cos(t) * sym + np.sin(t) * skew)[:, -1]

    def climb(theta: float) -> float:
        """Largest top(t) along Newton steps from theta, each to the vertex of
        the parabola through top(theta + stencil) while that is concave."""
        best = -math.inf
        for _ in range(_NEWTON_STEPS):
            lo, mid, hi = top(theta + stencil)
            best = max(best, lo, mid, hi)
            curvature = lo - 2.0 * mid + hi
            if not curvature < 0.0:
                break
            step = _NEWTON_STENCIL * (lo - hi) / (2.0 * curvature)
            theta += step
            if abs(step) <= _NEWTON_STEP_TOL:
                break
        return float(best)

    samples = np.arange(16) * (math.pi / 8.0)
    values = top(samples)
    best = float(values.max())
    theta = float(samples[np.argmax(values)])
    t0 = float(samples[np.argmin(values)]) + math.pi
    h0 = math.cos(t0) * sym + math.sin(t0) * skew
    k0 = math.sin(t0) * sym - math.cos(t0) * skew
    m = a.shape[0]
    eye = np.eye(m)
    companion = np.zeros((2 * m, 2 * m), dtype=np.complex128)
    companion[:m, m:] = eye
    while True:
        best = max(best, climb(theta))
        level = best + _LEVEL_NUDGE * max(abs(best), scale)
        lower = np.linalg.cholesky(h0 + level * eye)
        companion[m:, :m] = _congruence(lower, h0 - level * eye)
        companion[m:, m:] = -2.0 * _congruence(lower, k0)
        roots = np.linalg.eigvals(companion)
        real = roots[np.abs(roots.imag) <= _REAL_ROOT_RTOL * (1.0 + np.abs(roots))].real
        if real.size == 0:
            return best
        crossings = np.sort(t0 + 2.0 * np.arctan(real))
        gaps = np.diff(crossings, append=crossings[0] + 2.0 * math.pi)
        midpoints = crossings + gaps / 2.0
        values = top(midpoints)
        if values.max() <= best:
            return best
        theta = float(midpoints[np.argmax(values)])


def _congruence(lower: np.ndarray, x: np.ndarray) -> np.ndarray:
    """L^-1 x L^-* by two triangular-factor solves."""
    return np.linalg.solve(lower, np.linalg.solve(lower, x).conj().T).conj().T


def psd_sqrt(h) -> np.ndarray:
    """Positive semidefinite square root via the Hermitian eigendecomposition."""
    w, v = hermitian_eigen(h)
    norm_h = max(abs(float(w[0])), abs(float(w[-1])))
    if float(w[0]) < -PSD_RTOL * norm_h:
        raise NotPositiveDefiniteError(
            f"not positive semidefinite: smallest eigenvalue {w[0]:.3e}"
        )
    roots = np.sqrt(np.clip(w, 0.0, None))
    return (v * roots) @ v.conj().T


def _cholesky_lower(h: np.ndarray, tol: Tolerances) -> tuple[np.ndarray | None, float]:
    """Complex Cholesky with a relative pivot floor.

    Returns (L, margin) where margin is the smallest pivot divided by the
    mean diagonal scale; L is None when some pivot fails the floor.  LAPACK
    factors first, through the gufunc np.linalg.cholesky calls (bitwise its
    factor, without its per-call wrapper).  A refusal leaves the factor NaN,
    which fails the floor test, so the pivot loop runs when LAPACK refuses or
    a pivot L_kk^2 is at or below the floor and every refusal keeps its
    signed margin.
    """
    n = h.shape[0]
    scale = float(h.trace().real) / n
    if scale <= 0.0:
        # a PD matrix has positive trace; keep margins finite and signed
        scale = 1.0
    floor = tol.pd_floor * scale
    with np.errstate(invalid="ignore"):
        lower = _lapack.cholesky_lo(h)
        # LAPACK's pivots are positive, so the smallest square is the square of the smallest
        smallest = float(lower.diagonal().real.min()) ** 2
    if smallest > floor:
        return lower, smallest / scale
    return _cholesky_pivots(h, scale, floor)


def _cholesky_pivots(h: np.ndarray, scale: float, floor: float) -> tuple[np.ndarray | None, float]:
    """The pivot-by-pivot Cholesky of _cholesky_lower, stopping at the first failing pivot."""
    n = h.shape[0]
    lower = np.zeros((n, n), dtype=np.complex128)
    margin = math.inf
    for k in range(n):
        d = float(h[k, k].real) - float(np.sum(np.abs(lower[k, :k]) ** 2))
        margin = min(margin, d / scale)
        if d <= floor:
            return None, margin
        lower[k, k] = math.sqrt(d)
        if k + 1 < n:
            col = h[k + 1 :, k] - lower[k + 1 :, :k] @ lower[k, :k].conj()
            lower[k + 1 :, k] = col / lower[k, k]
    return lower, margin


def is_positive_definite(h, tol: Tolerances = DEFAULT_TOLERANCES) -> CheckResult:
    """Positive definiteness by Cholesky pivots against a relative floor.

    The margin is the smallest pivot divided by trace/n, so the identity
    reports margin 1.
    """
    h = _require_hermitian(h, "is_positive_definite")
    lower, margin = _cholesky_lower(h, tol)
    return CheckResult(lower is not None, margin)


def _huge_part(a: np.ndarray) -> float | None:
    """The largest real or imaginary part of a if above 2^64 (so ||a|| > 1 and a* a may overflow), or None."""
    top = max(float(np.abs(a.real).max()), float(np.abs(a.imag).max()))
    return top if top > 2.0**64 else None


def _nonsingular(a: np.ndarray, tol: Tolerances) -> tuple[bool, float]:
    """(sigma_min > pd_floor * sigma_max, sigma_min) from the singular values.

    Not from the eigenvalues of A*A, whose square root bottoms out near 1e-8 ||A||.
    """
    s = np.linalg.svd(a, compute_uv=False)
    smallest = float(s[-1])
    return smallest > tol.pd_floor * float(s[0]), smallest


def pd_cholesky(h, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Cholesky factor of a Hermitian positive definite matrix."""
    h = _require_hermitian(h, "pd_cholesky")
    lower, margin = _cholesky_lower(h, tol)
    if lower is None:
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite to tolerance (pivot margin {margin:.3e})"
        )
    return lower


def cholesky_solve(lower: np.ndarray, b) -> np.ndarray:
    """Solve (L L*) x = b given a Cholesky factor L: LAPACK solves against L, then L*."""
    lower, b = _as_matrix(lower), _as_matrix(b)
    n = lower.shape[0]
    if b.shape[0] != n:
        raise DimensionError(f"right-hand side rows {b.shape[0]} do not match {n}")
    return np.linalg.solve(lower.conj().T, np.linalg.solve(lower, b))


def pd_solve(h, b, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Solve h x = b for Hermitian positive definite h by Cholesky."""
    return cholesky_solve(pd_cholesky(h, tol), b)
