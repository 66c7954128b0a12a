"""Reference checks that use numpy only, independent of conric.

Every returned solution is checked on the original (A, Q) equation
X + A* conj(X)^-1 A = Q; existence verdicts are fixed at generation time
from a reference numerical radius of the lozenge embedding.
"""

from __future__ import annotations

import math

import numpy as np

# Equation residual (relative to ||Q||) accepted for a returned solution;
# conric certifies an absolute 1e-9 and ||Q|| >= 1 in every workload.
RESIDUAL_RTOL = 1e-9
# Digits are capped here, matching double precision.
DIGITS_CAP = 16.0
# Loewner-order and positive-definiteness slack, relative to the matrix scale.
ORDER_RTOL = 1e-9
# Agreement with the closed form of a con-normal coefficient.
CLOSED_FORM_RTOL = 1e-7
# Angle samples on [0, pi/2] and local maxima refined for the reference radius.
OMEGA_GRID = 256
OMEGA_PEAKS = 3
OMEGA_THETA_TOL = 1e-12


class OracleFailure(Exception):
    """A returned answer contradicts the numpy reference."""


def lozenge_ref(a: np.ndarray) -> np.ndarray:
    """Real block matrix [[A2, A1], [A1, -A2]] of A = A1 + i A2."""
    return np.block([[a.imag, a.real], [a.real, -a.imag]])


def _top_abs_eig(sym: np.ndarray, skew: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """max(lambda_max, -lambda_min) of cos(t) sym + i sin(t) skew, stacked over t."""
    h = np.cos(theta)[:, None, None] * sym + 1j * np.sin(theta)[:, None, None] * skew
    w = np.linalg.eigvalsh(h)
    return np.maximum(w[:, -1], -w[:, 0])


def numerical_radius_real(m: np.ndarray) -> float:
    """Numerical radius of a real square matrix.

    For real m the field of values is symmetric about both axes once the
    sign flip H(t + pi) = -H(t) is used, so the angles [0, pi/2] suffice:
    one stacked eigvalsh over a uniform grid, then golden-section refinement
    around the best few local maxima.
    """
    m = np.asarray(m, dtype=float)
    sym = (m + m.T) / 2.0
    skew = (m - m.T) / 2.0
    step = (math.pi / 2.0) / OMEGA_GRID
    theta = np.arange(OMEGA_GRID + 1) * step
    values = _top_abs_eig(sym, skew, theta)
    best = float(values.max())
    padded = np.concatenate(([-np.inf], values, [-np.inf]))
    peaks = np.flatnonzero((values >= padded[:-2]) & (values >= padded[2:]))
    peaks = peaks[np.argsort(values[peaks])[::-1][:OMEGA_PEAKS]]
    ratio = (math.sqrt(5.0) - 1.0) / 2.0

    def f(t: float) -> float:
        return float(_top_abs_eig(sym, skew, np.array([t]))[0])

    for i in peaks:
        lo, hi = theta[i] - step, theta[i] + step
        x1 = hi - ratio * (hi - lo)
        x2 = lo + ratio * (hi - lo)
        f1, f2 = f(x1), f(x2)
        while hi - lo > OMEGA_THETA_TOL:
            if f1 < f2:
                lo, x1, f1 = x1, x2, f2
                x2 = lo + ratio * (hi - lo)
                f2 = f(x2)
            else:
                hi, x2, f2 = x2, x1, f1
                x1 = hi - ratio * (hi - lo)
                f1 = f(x1)
            best = max(best, f1, f2)
    return best


def omega_lozenge(a: np.ndarray) -> float:
    """Reference omega(lozenge(A)), the quantity of the exact existence criterion."""
    return numerical_radius_real(lozenge_ref(np.asarray(a, dtype=np.complex128)))


def relative_residual(x: np.ndarray, a: np.ndarray, q: np.ndarray) -> float:
    """||X + A* conj(X)^-1 A - Q||_2 / ||Q||_2."""
    defect = x + a.conj().T @ np.linalg.solve(np.conj(x), a) - q
    return float(np.linalg.norm(defect, 2) / np.linalg.norm(q, 2))


def digits(relative_error: float) -> float:
    """-log10 of a relative error, capped at DIGITS_CAP."""
    if relative_error <= 10.0 ** -DIGITS_CAP:
        return DIGITS_CAP
    return min(DIGITS_CAP, -math.log10(relative_error))


def _min_eig(h: np.ndarray) -> float:
    return float(np.linalg.eigvalsh((h + h.conj().T) / 2.0)[0])


def check_solution(x: np.ndarray, a: np.ndarray, q: np.ndarray) -> float:
    """Check a returned solution; return its residual digits.

    Raises OracleFailure unless x is Hermitian positive definite and solves
    the equation on the original (A, Q) to RESIDUAL_RTOL.
    """
    x = np.asarray(x, dtype=np.complex128)
    if x.shape != a.shape or not np.isfinite(x).all():
        raise OracleFailure(f"solution has shape {x.shape} or non-finite entries")
    scale = max(1.0, float(np.linalg.norm(x, 2)))
    if np.linalg.norm(x - x.conj().T, 2) > ORDER_RTOL * scale:
        raise OracleFailure("solution is not Hermitian")
    if _min_eig(x) <= 0.0:
        raise OracleFailure(f"solution is not positive definite (min eig {_min_eig(x):.3e})")
    res = relative_residual(x, a, q)
    if not res <= RESIDUAL_RTOL:
        raise OracleFailure(f"relative residual {res:.3e} exceeds {RESIDUAL_RTOL:.0e}")
    return digits(res)


def check_order(lower: np.ndarray, upper: np.ndarray, what: str) -> None:
    """Raise OracleFailure unless lower <= upper in the Loewner order."""
    scale = max(1.0, float(np.linalg.norm(upper, 2)))
    gap = _min_eig(np.asarray(upper) - np.asarray(lower))
    if gap < -ORDER_RTOL * scale:
        raise OracleFailure(f"{what}: min eigenvalue of the difference is {gap:.3e}")


def con_normal_closed_form(a: np.ndarray, want: str) -> np.ndarray:
    """(I +- (I - 4 A* A)^(1/2)) / 2, the solutions for con-normal A at Q = I."""
    w, v = np.linalg.eigh(a.conj().T @ a)
    disc = np.sqrt(np.clip(1.0 - 4.0 * w, 0.0, None))
    eigs = (1.0 + disc) / 2.0 if want == "maximal" else (1.0 - disc) / 2.0
    return (v * eigs) @ v.conj().T


def check_closed_form(x: np.ndarray, a: np.ndarray, want: str) -> None:
    ref = con_normal_closed_form(a, want)
    err = float(np.linalg.norm(np.asarray(x) - ref, 2))
    if err > CLOSED_FORM_RTOL * max(1.0, float(np.linalg.norm(ref, 2))):
        raise OracleFailure(f"{want} solution is {err:.3e} from the con-normal closed form")


def check_verdict(verdict: str, accepted: tuple[str, ...]) -> None:
    if verdict not in accepted:
        raise OracleFailure(f"verdict {verdict!r}, expected one of {accepted}")


def check_sandwich(
    s_k: np.ndarray, r_k: np.ndarray, x_minus: np.ndarray, x_plus: np.ndarray
) -> None:
    """S_K <= X_- and R_K >= X_+ for the deepest rungs of a bounds report."""
    check_order(s_k, x_minus, "S_K <= X_-")
    check_order(x_plus, r_k, "R_K >= X_+")
