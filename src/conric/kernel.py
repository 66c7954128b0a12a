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
# The one definition of "positive definite" to tolerance: every pivot above PD_FLOOR * trace/n.
# mat_inverse alone reads it on singular values instead: sigma_min above PD_FLOOR * sigma_max.
PD_FLOOR = 1e-12
# The one definition of "converged": an iterate change at most STOP_REL times the iterate's norm.
STOP_REL = 1e-13
# The one scaling rule (_scaled): a matrix with a part outside [2^-200, 2^200] is scaled by an exact
# power of two first.  Inside, neither a matrix nor its Gram (or a product of two such matrices, at
# the sizes used here) reaches LAPACK's own rescaling by factors that are not powers of two, which
# starts near 2^+-485 for eigvalsh (below 2^-405 in its tridiagonal stage) and near 2^+-459 for
# eigvals and the SVD; so an estimate on 2^k M is exactly 2^k (or 4^k) times that on M.
_SAFE_RANGE = (2.0**-200, 2.0**200)
# Relative floor on the smallest eigenvalue accepted by psd_sqrt.
PSD_RTOL = 1e-10
# numerical_radius: the level sits this far (relative) above the best value
# found, it is certified once no root y has |Im y| <= _REAL_ROOT_RTOL (1 + |y|), and
# Newton steps in the angle use central differences over +-_NEWTON_STENCIL.
_LEVEL_NUDGE = 1e-14
_REAL_ROOT_RTOL = 1e-8
_NEWTON_STEPS = 8
_NEWTON_STENCIL = 1e-4
_NEWTON_STEP_TOL = 1e-9


@dataclass(frozen=True)
class Tolerances:
    """The settings of a run, exactly the command line's --tol and --max-iter.

    residual_tol      equation residual accepted as "solved", relative to
                      max(1, ||Q||) (ProblemInstance.residual_bound)
    max_iter          fixed point iteration cap

    The spectral and numerical radii take no tolerance: both come from
    LAPACK eigenvalue problems that are accurate to rounding, and the pivot
    floor and the stopping rule are the module constants PD_FLOOR and STOP_REL.
    """

    residual_tol: float = 1e-9
    max_iter: int = 100_000

    def __post_init__(self) -> None:
        # written so that NaN is refused too
        if not 0.0 < self.residual_tol < math.inf:
            raise ValueError("residual_tol must be finite and strictly positive")
        integral = isinstance(self.max_iter, numbers.Integral) and not isinstance(self.max_iter, bool)
        if not integral or self.max_iter < 1:
            raise ValueError("max_iter must be an integer of at least 1")
        object.__setattr__(self, "max_iter", int(self.max_iter))


DEFAULT_TOLERANCES = Tolerances()


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
    # the relative Frobenius rule, on h scaled so that neither norm overflows or underflows
    scaled, exponent = _scaled(h)
    drift = np.linalg.norm(scaled - scaled.conj().T)
    if drift > HERMITIAN_RTOL * np.linalg.norm(scaled):
        raise NotHermitianError(f"{who}: matrix deviates from Hermitian by {drift * 2.0**exponent:.3e}")
    return h


def _largest_part(a: np.ndarray) -> float:
    """The largest modulus of a real or imaginary part of a (the modulus of an entry can overflow)."""
    return float(np.abs(np.ascontiguousarray(a).view(np.float64)).max())


def _scaled(a: np.ndarray) -> tuple[np.ndarray, int]:
    """(a 2^-e, e) for an exact power of two: e = 0 unless a's largest part is outside the safe range.

    The only code that chooses a scaling: a matrix, or a stack of them scaled alike.  |e| <= 1023,
    so 2.0**e is a float, and a float times it reads inf where it overflows.
    """
    top = _largest_part(a)
    if _SAFE_RANGE[0] <= top <= _SAFE_RANGE[1] or top == 0.0:
        return a, 0
    exponent = min(max(math.frexp(top)[1], -1023), 1023)
    return a * 2.0**-exponent, exponent


def mat_mul(a, b) -> np.ndarray:
    """Matrix product with an explicit inner-dimension check."""
    a = _as_matrix(a)
    b = _as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"cannot multiply {a.shape} by {b.shape}")
    return a @ b


def mat_inverse(a) -> np.ndarray:
    """Inverse from LAPACK, refused for a matrix singular to tolerance.

    Raises SingularMatrixError when sigma_min <= PD_FLOOR * sigma_max, from
    the singular values: not from the eigenvalues of A*A, whose square root
    bottoms out near 1e-8 ||A||.
    """
    a = _require_square(a, "mat_inverse")
    s = np.linalg.svd(a, compute_uv=False)
    smallest = float(s[-1])
    if not smallest > PD_FLOOR * float(s[0]):
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
    """Spectral norm: the root of the top eigenvalue (eigvalsh) of the symmetrised Gram a*a.

    A matrix with a part outside [2^-200, 2^200] is first scaled by an exact power of two (_scaled),
    so the Gram neither overflows nor underflows at any finite scale.
    """
    a, exponent = _scaled(_as_matrix(a))
    gram = a.conj().T @ a
    w = np.linalg.eigvalsh((gram + gram.conj().T) / 2.0)
    return math.sqrt(max(float(w[-1]), 0.0)) * 2.0**exponent


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
    best midpoint between the angles of the roots' real parts (extra angles
    only split the gaps, so a super-level interval keeps a midpoint inside),
    until no midpoint beats the level; usually one companion solve certifies
    the first.  It runs on a scaled by an exact power of two (_scaled), and so does its result.
    """
    a, exponent = _scaled(_require_square(a, "numerical_radius"))
    up = 2.0**exponent
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
        if not (np.abs(roots.imag) <= _REAL_ROOT_RTOL * (1.0 + np.abs(roots))).any():
            return best * up
        # every root marks a candidate crossing: eigvals can push the near-double pair of a
        # level just above a dip off the axis, and dropping it puts a midpoint on the dip
        crossings = np.sort(t0 + 2.0 * np.arctan(roots.real))
        gaps = np.diff(crossings, append=crossings[0] + 2.0 * math.pi)
        midpoints = crossings + gaps / 2.0
        values = top(midpoints)
        if values.max() <= best:
            return best * up
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


def _cholesky_lower(h: np.ndarray) -> tuple[np.ndarray | None, float]:
    """Complex Cholesky with a relative pivot floor.

    Returns (L, margin) where margin is the smallest pivot divided by the
    mean diagonal scale; L is None when some pivot fails the floor.  LAPACK
    factors first, through the gufunc np.linalg.cholesky calls (bitwise its
    factor, without its per-call wrapper).  A refusal leaves the factor NaN,
    which fails the floor test, so the pivot loop runs when LAPACK refuses or
    a pivot L_kk^2 is at or below the floor and every refusal keeps its
    signed margin.  A NaN pivot is refused too, with margin NaN.
    """
    n = h.shape[0]
    scale = float(h.trace().real) / n
    if scale <= 0.0:
        # a PD matrix has positive trace; keep margins finite and signed
        scale = 1.0
    floor = PD_FLOOR * scale
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
        # min keeps its first argument when a comparison with NaN is False, so a NaN ratio stays
        margin = min(d / scale, margin)
        # written so that a NaN pivot, or a NaN floor from a NaN trace, is refused too
        if not d > floor:
            return None, margin
        lower[k, k] = math.sqrt(d)
        if k + 1 < n:
            col = h[k + 1 :, k] - lower[k + 1 :, :k] @ lower[k, :k].conj()
            lower[k + 1 :, k] = col / lower[k, k]
    return lower, margin


def is_positive_definite(h) -> CheckResult:
    """Positive definiteness by Cholesky pivots against a relative floor.

    The margin is the smallest pivot divided by trace/n, so the identity
    reports margin 1.
    """
    h = _require_hermitian(h, "is_positive_definite")
    lower, margin = _cholesky_lower(h)
    return CheckResult(lower is not None, margin)


def _huge_part(a: np.ndarray) -> float | None:
    """The largest real or imaginary part of a if above the safe range (so ||a|| > 1), or None."""
    top = _largest_part(a)
    return top if top > _SAFE_RANGE[1] else None


def pd_cholesky(h) -> np.ndarray:
    """Cholesky factor of a Hermitian positive definite matrix."""
    h = _require_hermitian(h, "pd_cholesky")
    lower, margin = _cholesky_lower(h)
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


def pd_solve(h, b) -> np.ndarray:
    """Solve h x = b for Hermitian positive definite h by Cholesky."""
    return cholesky_solve(pd_cholesky(h), b)
