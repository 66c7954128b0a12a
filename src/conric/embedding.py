"""Structured real embeddings of complex matrices.

A complex matrix A = A1 + i A2 maps to two real 2n x 2m block matrices:

    heart(A)   = [[A1, -A2], [A2, A1]]
    lozenge(A) = [[A2, A1], [A1, -A2]] = e_matrix(n) @ heart(A)

Embedded values reuse the complex128 storage of the kernel with exactly zero
imaginary parts, so one arithmetic path serves both worlds.  heart preserves
products, inverses, norms, spectral radii and positive definiteness, which is
what makes the fixed point engines in :mod:`conric.solver` equivalent to a
real symmetric problem.  Those identities are exercised as property tests,
not re-derived here.
"""

from __future__ import annotations

import numpy as np

from .kernel import (
    BAND,
    CheckResult,
    ConricError,
    DimensionError,
    _as_matrix,
    _require_square,
    _scaled,
    op_norm_2,
    spectral_radius,
)

# Relative drift at which a matrix stops counting as heart-structured.
HEART_RTOL = 1e-10


class NotHeartStructuredError(ConricError):
    """A matrix that must be heart-structured is not: the iteration drifted."""

    classification = "internal-error"


def heart(a) -> np.ndarray:
    """Real block embedding [[A1, -A2], [A2, A1]] of A = A1 + i A2."""
    a = _as_matrix(a)
    a1 = a.real
    a2 = a.imag
    return np.block([[a1, -a2], [a2, a1]]).astype(np.complex128)


def lozenge(a) -> np.ndarray:
    """Real block embedding [[A2, A1], [A1, -A2]] of A = A1 + i A2."""
    a = _as_matrix(a)
    a1 = a.real
    a2 = a.imag
    return np.block([[a2, a1], [a1, -a2]]).astype(np.complex128)


def e_matrix(n: int) -> np.ndarray:
    """The 2n x 2n block swap [[0, I], [I, 0]]."""
    if n < 1:
        raise DimensionError("e_matrix needs n >= 1")
    eye = np.eye(n)
    zero = np.zeros((n, n))
    return np.block([[zero, eye], [eye, zero]]).astype(np.complex128)


def p_matrix(n: int) -> np.ndarray:
    """The unitary (sqrt(2)/2) [[iI, I], [I, iI]] that block-diagonalizes heart."""
    if n < 1:
        raise DimensionError("p_matrix needs n >= 1")
    eye = np.eye(n, dtype=np.complex128)
    return (np.sqrt(2.0) / 2.0) * np.block([[1j * eye, eye], [eye, 1j * eye]])


def _heart_drift(w: np.ndarray) -> float:
    n = w.shape[0] // 2
    w11 = w[:n, :n]
    w12 = w[:n, n:]
    w21 = w[n:, :n]
    w22 = w[n:, n:]
    return float(
        max(
            np.linalg.norm(w11 - w22),
            np.linalg.norm(w12 + w21),
            np.linalg.norm(w.imag),
        )
    )


def heart_structure_drift(w) -> float:
    """Absolute deviation of a 2n x 2n matrix from the heart block pattern."""
    w = _require_square(w, "heart_structure_drift")
    if w.shape[0] % 2 != 0:
        raise DimensionError("heart-structured matrices have even dimension")
    return _heart_drift(w)


def unheart(w) -> np.ndarray:
    """Extract the complex n x n matrix whose heart embedding is w.

    Computes (1/2) [iI; I]* w [iI; I] after checking that w is real with
    matching diagonal blocks and antisymmetric off-diagonal blocks.  Refuses
    rather than projecting, so structural drift in an iteration surfaces as
    an error instead of being silently absorbed.
    """
    w = _require_square(w, "unheart")
    if w.shape[0] % 2 != 0:
        raise DimensionError("unheart needs an even-dimensional matrix")
    n = w.shape[0] // 2
    drift = _heart_drift(w)
    if drift > HEART_RTOL * max(1.0, float(np.linalg.norm(w))):
        raise NotHeartStructuredError(
            f"block structure drift {drift:.3e} exceeds tolerance"
        )
    eye = np.eye(n, dtype=np.complex128)
    stack = np.vstack([1j * eye, eye])
    return (stack.conj().T @ w @ stack) / 2.0


def is_con_normal(a) -> CheckResult:
    """Whether a*a equals conj(a a*), the class with closed form solutions.

    The defect norm is compared with HEART_RTOL ||a||^2, so the test does not depend on a's scale.
    Both are taken on a scaled by an exact power of two (kernel._scaled); the margin, the threshold
    minus the defect and positive when the test passes, is scaled back, to inf where it overflows.
    """
    a, exponent = _scaled(_require_square(a, "is_con_normal"))
    defect = op_norm_2(a.conj().T @ a - np.conj(a @ a.conj().T))
    threshold = HEART_RTOL * op_norm_2(a) ** 2
    up = 2.0**exponent
    return CheckResult(defect <= threshold, (threshold - defect) * up * up)


def co_spectral_radius_vs_one(a) -> tuple[str, float]:
    """Classify the con-spectral radius of a against 1.

    Returns ("below" | "at" | "above", rho) where rho is the spectral radius
    of a @ conj(a); the classification carries the +-BAND band around 1.  The product is formed
    from a scaled by an exact power of two (kernel._scaled), so rho reads inf only where it overflows.
    """
    a, exponent = _scaled(_require_square(a, "co_spectral_radius_vs_one"))
    up = 2.0**exponent
    rho = spectral_radius(a @ np.conj(a)) * up * up
    if rho < 1.0 - BAND:
        return "below", rho
    if rho > 1.0 + BAND:
        return "above", rho
    return "at", rho
