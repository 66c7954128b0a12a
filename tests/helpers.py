"""Shared test data and samplers."""

from __future__ import annotations

import numpy as np

from conric import solver
from conric.kernel import Tolerances

# 2x2 instance used throughout: boundary for the classical equation
# (numerical radius exactly 1/2) yet comfortably solvable for the
# conjugate-inverse one, so the two solution sets visibly differ.
EX1_A = np.array(
    [[0.25 + 0.25j, 0.25j], [-0.25j, 0.25 - 0.25j]], dtype=np.complex128
)
_S6 = np.sqrt(6.0)
EX1_X_PLUS = np.array(
    [
        [0.5 + _S6 / 8.0, -0.125 - 0.125j],
        [-0.125 + 0.125j, 0.5 + _S6 / 8.0],
    ],
    dtype=np.complex128,
)
_S2 = np.sqrt(2.0)
EX1_X_PLUS_STANDARD = np.array(
    [
        [_S2 / 8.0 + 0.5, -0.25 - (_S2 / 8.0) * 1j],
        [-0.25 + (_S2 / 8.0) * 1j, _S2 / 8.0 + 0.5],
    ],
    dtype=np.complex128,
)
# frozen from the 2x2 closed form 0.1875 +- |0.125 - 0.125j|
EX1_AAH_EIGS = (0.0107233, 0.3642767)
EX1_NORM = 0.6035533905932738
# Q = L L^T with L = [[1, 0], [1.3e6, 1]] passes the pivot floor, but its
# square root is singular to tolerance (sigma_min 7.7e-7, sigma_max 1.3e6)
ILL_Q_A = np.array([[0.1, 0.05j], [0.02, 0.1]], dtype=np.complex128)
ILL_Q = np.array([[1.0, 1.3e6], [1.3e6, 1.3e6**2 + 1.0]])
# Q spans 12 orders of magnitude: X+ = diag(0.99, 4.3e-13) fails the pivot floor in
# Q's coordinates (margin 8.7e-13) while its unit-Q image diag(0.99, 0.72) clears it
SCALED_Q_A = np.diag([0.1, 0.27e-12]).astype(np.complex128)
SCALED_Q = np.diag([1.0, 0.6e-12])

# ||A|| = 1 exactly, so Y_1 = I - A*A and its dual I - AA* are singular; every product is
# exact and the pivot loop rounds only in sqrt and division, which breaks the named side's
# ladder at rung 2 (margin <= 0) and truncates the other side's there (margin in (0, floor])
ONE_SIDED_BREAKDOWN = {
    "lower": np.array([[-0.375, -0.875], [-0.125, 0.375]]),
    "upper": np.array([[-0.375, -0.125], [-0.875, 0.375]]),
}

def scalar_solutions(a: complex) -> tuple[float, float]:
    """Roots of x**2 - x + |a|**2 = 0, the 1x1 equation with q = 1."""
    disc = 1.0 - 4.0 * abs(a) ** 2
    if disc < 0.0:
        raise ValueError(f"no real solution for |a| = {abs(a)}")
    root = np.sqrt(disc)
    return (1.0 + root) / 2.0, (1.0 - root) / 2.0


def direct_unit_maximal(
    a: np.ndarray, stop_rel: float = 1e-13, max_iter: int = 100_000
) -> np.ndarray:
    """Reference maximal solution at Q = I: Y <- I - A* conj(Y)^-1 A from Y = I.

    The direct conjugate iteration in plain numpy, stopped once a step falls
    below ``stop_rel`` relative to the iterate.
    """
    eye = np.eye(a.shape[0], dtype=np.complex128)
    y = eye
    for _ in range(max_iter):
        y_next = eye - a.conj().T @ np.linalg.solve(np.conj(y), a)
        y_next = (y_next + y_next.conj().T) / 2.0
        if np.linalg.norm(y_next - y, 2) <= stop_rel * np.linalg.norm(y, 2):
            return y_next
        y = y_next
    raise RuntimeError(f"direct iteration did not settle within {max_iter} steps")


def random_complex(rng: np.random.Generator, n: int, m: int | None = None) -> np.ndarray:
    m = n if m is None else m
    return rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))


def random_with_norm(rng: np.random.Generator, n: int, target: float) -> np.ndarray:
    a = random_complex(rng, n)
    return target * a / np.linalg.norm(a, 2)


def random_solvable(
    rng: np.random.Generator, n: int, max_norm: float = 0.499, min_norm: float = 0.05
) -> np.ndarray:
    """Coefficient with spectral norm below 1/2, hence provably solvable."""
    return random_with_norm(rng, n, float(rng.uniform(min_norm, max_norm)))


def random_nonsingular_solvable(
    rng: np.random.Generator, n: int, max_norm: float = 0.499, min_norm: float = 0.05
) -> np.ndarray:
    while True:
        a = random_solvable(rng, n, max_norm, min_norm)
        singular_values = np.linalg.svd(a, compute_uv=False)
        if singular_values[-1] > 1e-3 * singular_values[0]:
            return a


def random_well_conditioned_solvable(
    rng: np.random.Generator, n: int, lo: float = 0.26, hi: float = 0.49
) -> np.ndarray:
    """Solvable coefficient with all singular values inside [lo, hi].

    Keeps every direction of a depth-6 bound ladder converging slowly
    enough that the strict domination gaps stay above rounding level.
    """
    u = random_unitary(rng, n)
    v = random_unitary(rng, n)
    return u @ np.diag(rng.uniform(lo, hi, size=n)) @ v.conj().T


def random_non_normal(rng: np.random.Generator, n: int) -> np.ndarray:
    """Strongly non-normal A = U (lam I + 0.12 N) U^T, N the nilpotent shift, lam in [0.1, 0.3].

    ||A|| <= lam + 0.12 < 1/2, so a solution exists, and det A = lam^n makes A nonsingular.
    """
    u = random_unitary(rng, n)
    return u @ (rng.uniform(0.1, 0.3) * np.eye(n) + 0.12 * np.eye(n, k=1)) @ u.T


def near_critical_solutions(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A, X+, X-) for complex-symmetric A = U diag(0.1, 0.3, 0.45, 1/2 - 1e-4) U^T.

    omega(lozenge A) = ||A|| = 1/2 - 1e-4, and conj(U) U^T = I gives the extremal
    solutions in closed form, conj(U) diag(x) U^T with x the scalar roots of each s.
    """
    u = random_unitary(rng, 4)
    s = np.array([0.1, 0.3, 0.45, 0.5 - 1e-4])
    roots = np.array([scalar_solutions(v) for v in s])
    return u @ np.diag(s) @ u.T, *(np.conj(u) @ np.diag(x) @ u.T for x in roots.T)


def near_critical(rng: np.random.Generator) -> np.ndarray:
    return near_critical_solutions(rng)[0]


def singular_tilted_null(rng: np.random.Generator) -> np.ndarray:
    """Rank-2 A = U diag(0.3, s2, 0) V* at n = 3, s2 in 0.3 * [0.01, 0.32], log-uniform.

    The null vector of A^T, conj(U e3), has a last component of modulus 10^-3.5 to
    10^-2, so the last Cholesky pivot of the unit X- = Z* Z carries the rounding of
    the null direction amplified, and on about half the draws clears the floor.
    """
    t = 10.0 ** rng.uniform(-3.5, -2.0)
    basis = random_complex(rng, 3)
    basis[:2, 0] *= np.sqrt(1.0 - t * t) / np.linalg.norm(basis[:2, 0])
    basis[2, 0] = t * np.exp(2j * np.pi * rng.uniform())
    # QR keeps the direction of the first column, which becomes U's third
    u = np.linalg.qr(basis)[0][:, [1, 2, 0]]
    s2 = 0.3 * 10.0 ** rng.uniform(-2.0, np.log10(0.32))
    return (u * np.array([0.3, s2, 0.0])) @ random_unitary(rng, 3).conj().T


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    m = random_complex(rng, n)
    return (m + m.conj().T) / 2.0


def random_psd(rng: np.random.Generator, n: int) -> np.ndarray:
    m = random_complex(rng, n)
    return m @ m.conj().T


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    _, v = np.linalg.eigh(random_hermitian(rng, n))
    return v


def scalar_ladder(a: complex, depth: int) -> tuple[list[float], list[float]]:
    """Continued-fraction recursion s1 = |a|^2, s_{k+1} = |a|^2 / (1 - s_k)."""
    mag2 = abs(a) ** 2
    lower = [mag2]
    for _ in range(depth - 1):
        lower.append(mag2 / (1.0 - lower[-1]))
    upper = [1.0 - s for s in lower]
    return lower, upper


def numerical_radius_loop(
    a: np.ndarray, omega_grid: int = 1024, refine_tol: float = 1e-10
) -> float:
    """Slow reference numerical radius: one eigvalsh call per angle.

    ``omega_grid`` angles over the whole circle, then ternary refinement
    around the best sample; the value is the largest top eigenvalue seen.
    """
    adj = a.conj().T

    def top(theta: float) -> float:
        z = complex(np.cos(theta), np.sin(theta))
        return float(np.linalg.eigvalsh((z * a + z.conjugate() * adj) / 2.0)[-1])

    step = 2.0 * np.pi / omega_grid
    angles = np.arange(omega_grid) * step
    values = [top(t) for t in angles]
    i = int(np.argmax(values))
    best = values[i]
    lo, hi = angles[i] - step, angles[i] + step
    while hi - lo > refine_tol:
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        f1, f2 = top(m1), top(m2)
        best = max(best, f1, f2)
        if f1 < f2:
            lo = m1
        else:
            hi = m2
    return best


def cholesky_pivot_loop(h: np.ndarray, pd_floor: float = 1e-12) -> tuple[np.ndarray | None, float]:
    """Reference Cholesky, one pivot at a time against the floor pd_floor * trace/n.

    Returns (L, margin) with margin the smallest pivot over trace/n, or
    (None, margin) at the first pivot at or below the floor.
    """
    h = np.asarray(h, dtype=np.complex128)
    n = h.shape[0]
    scale = float(np.trace(h).real) / n
    if scale <= 0.0:
        scale = 1.0
    lower = np.zeros((n, n), dtype=np.complex128)
    margin = np.inf
    for k in range(n):
        d = float(h[k, k].real) - float(np.sum(np.abs(lower[k, :k]) ** 2))
        margin = min(margin, d / scale)
        if d <= pd_floor * scale:
            return None, margin
        lower[k, k] = np.sqrt(d)
        lower[k + 1 :, k] = (h[k + 1 :, k] - lower[k + 1 :, :k] @ lower[k, :k].conj()) / lower[k, k]
    return lower, margin


def doubling_all_steps(b: np.ndarray, steps: int) -> np.ndarray:
    """Reference doubling for W + B^T W^-1 B = I: all ``steps`` steps, Q_steps = W_(2^steps - 1)."""
    b, q, p = np.array(b.real), np.eye(b.shape[0]), np.zeros(b.shape)
    for _ in range(steps):
        lower = np.linalg.cholesky(q - p)
        z1, z2 = np.hsplit(np.linalg.solve(lower, np.hstack([b, b.T])), 2)
        q = q - z1.T @ z1
        p = p + z2.T @ z2
        b = z2.T @ z1
    return q


def conjugate_doubling_all_steps(a: np.ndarray, steps: int) -> np.ndarray:
    """Reference doubling for Y + a* conj(Y)^-1 a = I: all ``steps`` >= 1 steps, Q_steps = Y_(2^steps - 1).

    Step 1 in closed form, then complex SDA; the heart preimage of doubling_all_steps(lozenge(a)).
    """
    q, p, b = np.eye(a.shape[0]) - a.conj().T @ a, np.conj(a @ a.conj().T), np.conj(a) @ a
    return _complex_sda(q, p, b, steps)


def classical_doubling_all_steps(b: np.ndarray, steps: int) -> np.ndarray:
    """Reference doubling for W + b* W^-1 b = I: all ``steps`` >= 1 steps, Q_steps = W_(2^steps - 1).

    Step 1 is SDA's step from (I, 0, b) in closed form, then complex SDA.
    """
    q, p, b = np.eye(b.shape[0]) - b.conj().T @ b, b @ b.conj().T, b @ b
    return _complex_sda(q, p, b, steps)


def _complex_sda(q: np.ndarray, p: np.ndarray, b: np.ndarray, steps: int) -> np.ndarray:
    """Q_steps of complex SDA from step 1's (Q, P, B)."""
    for _ in range(1, steps):
        lower = np.linalg.cholesky(q - p)
        z1, z2 = np.hsplit(np.linalg.solve(lower, np.hstack([b, b.conj().T])), 2)
        q = q - z1.conj().T @ z1
        p = p + z2.conj().T @ z2
        b = z2.conj().T @ z1
    return q


def reference_step(w: np.ndarray, c: np.ndarray, conjugate_iterate: bool) -> np.ndarray:
    """Reference recurrence step I - C* inner(W)^-1 C, inner(W) = conj(W) or W, by LU solve."""
    inner = np.conj(w) if conjugate_iterate else w
    return np.eye(c.shape[0]) - c.conj().T @ np.linalg.solve(inner, c)


def reference_iterations(b: np.ndarray, stop_rel: float = 1e-13, residual_tol: float = 1e-9) -> int:
    """Iterations of the fixed-point engine's stopping rule, in plain numpy on real B.

    From W = I, step W <- I - B^T W^-1 B; stop at the first step k whose change
    is at most stop_rel ||W|| and whose new iterate's defect (its own next
    step's change) is at most residual_tol, in the spectral norm.
    """
    b = np.array(b.real)
    w = np.eye(b.shape[0])
    for k in range(1, 1_000_000):
        w_next = reference_step(w, b, False)
        w_next = (w_next + w_next.T) / 2.0
        if np.linalg.norm(w_next - w, 2) <= stop_rel * np.linalg.norm(w, 2):
            if np.linalg.norm(w_next - reference_step(w_next, b, False), 2) <= residual_tol:
                return k
        w = w_next
    raise RuntimeError("reference iteration did not stop")


def loop_iterates(coeff: np.ndarray, tol: Tolerances, count: int) -> list[np.ndarray]:
    """[W_0 = I, W_1, ..., W_count] of the fixed point loop, stepped by the solver's own _cone_step.

    The loop's trace is the norms of the consecutive differences, and its solution W_iterations.
    """
    iterates = [np.eye(coeff.shape[0], dtype=np.complex128)]
    for _ in range(count):
        iterates.append(solver._cone_step(iterates[-1], coeff, False, tol)[0])
    return iterates
