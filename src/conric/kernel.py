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
# Relative agreement between successive Gelfand estimates.
GELFAND_RTOL = 1e-8


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds shared by every module.

    pd_floor          relative pivot floor for positive definiteness checks
    stop_rel          relative iterate-change stopping threshold
    residual_tol      equation residual accepted as "solved"
    max_iter          fixed point iteration cap
    omega_grid        angle samples for the numerical radius grid search
    omega_refine_tol  angle-interval width at which refinement stops
    gelfand_squarings cap on norm-squaring steps for the spectral radius
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


def _one_norm(a: np.ndarray) -> float:
    return float(np.abs(a).sum(axis=0).max())


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
    """Spectral radius via Gelfand's formula with repeated squaring.

    The matrix is renormalized after every squaring and the scale factors are
    accumulated in log space, so the estimate ``exp(log_scale / 2**m)`` is
    overflow free.  Stops once two successive estimates agree to 1e-8
    relative, or after ``gelfand_squarings`` squarings.
    """
    a = _require_square(a, "spectral_radius")
    scale = _one_norm(a)
    if scale == 0.0:
        return 0.0
    m = a / scale
    log_acc = math.log(scale)
    est = scale
    agreements = 0
    for step in range(1, tol.gelfand_squarings + 1):
        m = m @ m
        s = _one_norm(m)
        if s == 0.0:
            # nilpotent to machine precision
            return 0.0
        m = m / s
        log_acc = 2.0 * log_acc + math.log(s)
        new_est = math.exp(log_acc / float(2 ** step))
        if abs(new_est - est) <= GELFAND_RTOL * max(new_est, est):
            # matrices with complex dominant pairs have oscillating norms
            # under squaring, which can fake agreement; insist on a streak
            # and on a power high enough to flatten the oscillation
            agreements += 1
            if agreements >= 2 and step >= 20:
                return new_est
        else:
            agreements = 0
        est = new_est
    return est


def numerical_radius(a, tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """max over angles of the top eigenvalue of (e^{it} a + e^{-it} a*)/2.

    Uniform grid of ``omega_grid`` angles followed by ternary refinement
    around the best sample.  The result is a lower biased estimate whose bias
    is bounded by ``||a||`` times the grid spacing.
    """
    a = _require_square(a, "numerical_radius")
    adj = a.conj().T

    def top(theta: float) -> float:
        z = complex(math.cos(theta), math.sin(theta))
        h = (z * a + z.conjugate() * adj) / 2.0
        return float(np.linalg.eigvalsh(h)[-1])

    step = 2.0 * math.pi / tol.omega_grid
    angles = np.arange(tol.omega_grid) * step
    values = [top(t) for t in angles]
    i = int(np.argmax(values))
    best = values[i]
    lo = angles[i] - step
    hi = angles[i] + step
    while hi - lo > tol.omega_refine_tol:
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        f1 = top(m1)
        f2 = top(m2)
        best = max(best, f1, f2)
        if f1 < f2:
            lo = m1
        else:
            hi = m2
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
