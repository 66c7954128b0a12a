"""Dense complex linear algebra kernel.

Matrices are numpy ``complex128`` arrays of shape ``(rows, cols)`` in row
major order.  :func:`cmatrix` is the validating constructor; every operation
treats its inputs as immutable and returns fresh arrays.  All spectral
quantities used elsewhere in the package (2-norm, spectral radius, numerical
radius, PSD square root, positive definiteness) live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


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


# Relative tolerance for treating a matrix as Hermitian.
HERMITIAN_RTOL = 1e-10
# Relative floor on the smallest eigenvalue accepted by psd_sqrt.
PSD_RTOL = 1e-10
# Most angles per stacked eigvalsh call in numerical_radius.
_RADIUS_CHUNK = 64
# Golden-section ratio (sqrt(5) - 1) / 2.
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds shared by every module.

    pd_floor          relative pivot floor for positive definiteness checks
    stop_rel          relative iterate-change stopping threshold
    residual_tol      equation residual accepted as "solved"
    max_iter          fixed point iteration cap
    omega_grid        angle samples for the numerical radius grid search
    omega_refine_tol  angle-interval width at which refinement stops
    gelfand_squarings unused: the spectral radius comes from eigvals; kept
                      because every report's tolerances block echoes it
    """

    pd_floor: float = 1e-12
    stop_rel: float = 1e-13
    residual_tol: float = 1e-9
    max_iter: int = 100_000
    omega_grid: int = 1024
    omega_refine_tol: float = 1e-10
    gelfand_squarings: int = 40

    def __post_init__(self) -> None:
        for name in ("pd_floor", "stop_rel", "residual_tol", "omega_refine_tol"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be strictly positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.omega_grid < 8:
            raise ValueError("omega_grid must be at least 8")
        if self.gelfand_squarings < 1:
            raise ValueError("gelfand_squarings must be at least 1")


TOLERANCE_PROFILES = {
    "default": Tolerances(),
    "strict": Tolerances(
        pd_floor=1e-13,
        stop_rel=1e-14,
        residual_tol=1e-11,
        max_iter=200_000,
        omega_grid=4096,
        omega_refine_tol=1e-12,
        gelfand_squarings=48,
    ),
}

DEFAULT_TOLERANCES = TOLERANCE_PROFILES["default"]


class CheckResult(NamedTuple):
    """Boolean decision plus a signed margin (positive means the check holds)."""

    ok: bool
    margin: float


def cmatrix(entries) -> np.ndarray:
    """Validating constructor: array-like -> finite complex128 matrix."""
    a = np.array(entries, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise DimensionError(f"expected a 2-d matrix, got shape {a.shape}")
    if not np.isfinite(a.real).all() or not np.isfinite(a.imag).all():
        raise ValueError("matrix entries must be finite")
    return a


def _as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2:
        raise DimensionError(f"expected a 2-d matrix, got shape {a.shape}")
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
    """Inverse by Gauss elimination with partial pivoting.

    Raises SingularMatrixError when a pivot falls below ``pd_floor`` times the
    largest magnitude in its column.
    """
    a = _require_square(a, "mat_inverse")
    n = a.shape[0]
    work = np.hstack([a.astype(np.complex128, copy=True), np.eye(n, dtype=np.complex128)])
    for k in range(n):
        column_scale = float(np.abs(work[:, k]).max())
        p = k + int(np.argmax(np.abs(work[k:, k])))
        pivot = abs(work[p, k])
        if pivot <= tol.pd_floor * column_scale or pivot == 0.0:
            raise SingularMatrixError(
                f"singular to tolerance: pivot {pivot:.3e} in column {k}"
            )
        if p != k:
            work[[k, p]] = work[[p, k]]
        work[k] = work[k] / work[k, k]
        others = np.arange(n) != k
        work[others] -= np.outer(work[others, k], work[k])
    return work[:, n:]


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
    """Spectral norm, the square root of the largest eigenvalue of a*a."""
    a = _as_matrix(a)
    gram = a.conj().T @ a
    w, _ = hermitian_eigen((gram + gram.conj().T) / 2.0)
    return math.sqrt(max(float(w[-1]), 0.0))


def spectral_radius(a, tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """Largest eigenvalue modulus, from LAPACK's nonsymmetric eigensolver.

    ``tol`` is accepted for signature compatibility and not used.
    """
    a = _require_square(a, "spectral_radius")
    return float(np.abs(np.linalg.eigvals(a)).max())


def _radius_angles(omega_grid: int, real: bool) -> tuple[np.ndarray, float]:
    """Grid angles for numerical_radius and their spacing 2 pi / omega_grid.

    The half circle [0, pi) for any matrix; for a real one the closed quarter
    [0, pi/2], its angle count rounded up so the last angle is >= pi/2.
    """
    step = 2.0 * math.pi / omega_grid
    count = -(-omega_grid // 4) + 1 if real else -(-omega_grid // 2)
    return np.arange(count) * step, step


def _top_abs_eigs(sym: np.ndarray, skew: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """max(lambda_max, -lambda_min) of cos(t) sym + sin(t) skew for each angle t.

    One stacked eigvalsh per chunk of at most _RADIUS_CHUNK angles, which
    keeps the stacked work array small.
    """
    out = np.empty(len(angles))
    for start in range(0, len(angles), _RADIUS_CHUNK):
        t = angles[start : start + _RADIUS_CHUNK, None, None]
        w = np.linalg.eigvalsh(np.cos(t) * sym + np.sin(t) * skew)
        out[start : start + len(t)] = np.maximum(w[:, -1], -w[:, 0])
    return out


def numerical_radius(a, tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """max over angles t of the top eigenvalue of H(t) = (e^{it} a + e^{-it} a*)/2.

    H(t) = cos(t) (a + a*)/2 + sin(t) i(a - a*)/2 and H(t + pi) = -H(t), so
    max(lambda_max, -lambda_min) of H over the half circle [0, pi) covers
    every angle.  For real ``a`` also H(-t) = conj H(t), and the quarter
    circle [0, pi/2] suffices.  The angles are spaced 2 pi / ``omega_grid``
    apart and evaluated by stacked LAPACK eigvalsh calls in chunks; golden
    section search then refines one grid step either side of the best
    sample until the bracket is narrower than ``omega_refine_tol``.  The
    result is the largest value sampled: a lower biased estimate whose bias
    is bounded by ``||a||`` times the grid spacing.
    """
    a = _require_square(a, "numerical_radius")
    adj = a.conj().T
    sym = (a + adj) / 2.0
    skew = 1j * (a - adj) / 2.0
    angles, step = _radius_angles(tol.omega_grid, not a.imag.any())
    values = _top_abs_eigs(sym, skew, angles)
    i = int(np.argmax(values))

    def top(theta: float) -> float:
        return float(_top_abs_eigs(sym, skew, np.array([theta]))[0])

    lo = float(angles[i]) - step
    hi = float(angles[i]) + step
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1 = top(x1)
    f2 = top(x2)
    best = max(float(values[i]), f1, f2)
    while hi - lo > tol.omega_refine_tol:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = top(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = top(x1)
        best = max(best, f1, f2)
    return best


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
    mean diagonal scale; L is None when some pivot fails the floor.
    """
    n = h.shape[0]
    scale = float(np.trace(h).real) / n
    if scale <= 0.0:
        # a PD matrix has positive trace; keep margins finite and signed
        scale = 1.0
    floor = tol.pd_floor * scale
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
    """Solve (L L*) x = b given a Cholesky factor L."""
    b = _as_matrix(b)
    n = lower.shape[0]
    if b.shape[0] != n:
        raise DimensionError(f"right-hand side rows {b.shape[0]} do not match {n}")
    y = np.zeros_like(b)
    for i in range(n):
        y[i] = (b[i] - lower[i, :i] @ y[:i]) / lower[i, i]
    upper = lower.conj().T
    x = np.zeros_like(b)
    for i in range(n - 1, -1, -1):
        x[i] = (y[i] - upper[i, i + 1 :] @ x[i + 1 :]) / upper[i, i]
    return x


def pd_solve(h, b, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Solve h x = b for Hermitian positive definite h by Cholesky."""
    return cholesky_solve(pd_cholesky(h, tol), b)
