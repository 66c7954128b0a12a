"""Fixed point engines for X + A* conj(X)^-1 A = Q type equations.

Two equations are solved here:

* the standard equation  X + B* X^-1 B = I, whose monotone iteration
  ``X_{k+1} = I - B* X_k^-1 B`` from the identity doubling steps to
  ``X_(2^j - 1)`` at step j for every size of B (:func:`standard_solve_maximal`),
  and
* the conjugate-inverse equation  X + A* conj(X)^-1 A = Q  by reducing to the
  standard one through the lozenge embedding (:func:`solve_maximal`) and to
  its dual through ``Y = I - conj(X)`` (:func:`solve_minimal`).

A ProblemInstance factors Q = L L* and forms the unit-Q coefficient a_q once;
every route reads ``p.a_q`` and maps a unit solution back with ``p.back``.
Both solves run one unit-Q core, the loop, and leave through one tail: its
one factor of the unit solution gives the pivot-floor test, the equation
residual that certifies the result (never stagnation alone) and the rate
certificate, which certifies it maximal too.  The standard solver runs
doubling from the classical step 1 at every size, and the loop only where it
breaks down; the bounds sandwich takes both extremal solutions from one
conjugate doubling run, whose Q and P are the unit rungs of both ladders.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from . import kernel
from .embedding import co_spectral_radius_vs_one, lozenge, unheart
from .kernel import (
    ConricError,
    DEFAULT_TOLERANCES,
    DimensionError,
    NotPositiveDefiniteError,
    Tolerances,
    adjoint,
    cholesky_solve,
    cmatrix,
    hermitian_norm_2,
    hermitian_norms_2,
    op_norm_2,
    pd_cholesky,
    _cholesky_lower,
    _congruence,
    _huge_part,
    _lapack,
    _require_hermitian,
    _require_square,
)

class SolveFailure(ConricError):
    """A solve that ended without a certified solution, with how far it got.

    ``classification`` is the name a report gives the failure.
    """

    classification: str

    def __init__(self, message: str, iterations: int = 0, trace: array[float] | None = None):
        super().__init__(message)
        self.iterations = iterations
        self.trace = trace if trace is not None else array("d")


class NoSolutionEvidence(SolveFailure):
    """An iterate left the positive definite cone.

    The iteration is monotone inside the cone whenever a positive definite
    solution exists, so leaving the cone certifies non-existence.
    """

    classification = "no-solution-evidence"


class MaxIterationsExceeded(SolveFailure):
    """Iteration cap reached before the stopping rule certified a solution."""

    classification = "max-iterations"


class InternalInconsistency(ConricError):
    """Two checks that must agree did not; the result cannot be trusted."""

    classification = "internal-error"


class SingularCoefficient(ConricError):
    """The coefficient matrix is singular to tolerance."""


class NotASolution(ConricError):
    """The supplied matrix does not solve the equation to tolerance."""


@dataclass(frozen=True)
class ProblemInstance:
    """Equation data: coefficient ``a``, right-hand side ``q`` (default I), and its unit problem.

    ``q_factor`` is the Cholesky factor L of Q = L L* from the pivot-floor check (I for Q = I),
    ``a_q`` the unit-Q coefficient of :func:`normalize_q`; both are computed once, and the
    instance and its arrays are frozen so that they cannot go stale.
    """

    a: np.ndarray
    q: np.ndarray | None = None
    tol: Tolerances = DEFAULT_TOLERANCES
    q_factor: np.ndarray = field(init=False, repr=False)
    a_q: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        a = _require_square(cmatrix(self.a), "ProblemInstance")
        if self.q is None:
            q = lower = np.eye(a.shape[0], dtype=np.complex128)
        else:
            q = cmatrix(self.q)
            if q.shape != a.shape:
                raise ValueError(f"q shape {q.shape} does not match a shape {a.shape}")
            lower, margin = _cholesky_lower(_require_hermitian(q, "q"))
            if lower is None:
                raise NotPositiveDefiniteError(f"q must be positive definite (pivot margin {margin:.3e})")
        for name, value in (("a", a), ("q", q), ("q_factor", lower)):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "a_q", normalize_q(self))
        # the arrays too, so that an entry written in place cannot leave the factor or a_q stale
        for value in (a, q, lower, self.a_q):
            value.flags.writeable = False

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @functools.cached_property
    def residual_bound(self) -> float:
        """The largest residual a solution is accepted with; X(tA, tQ) = t X(A, Q), so it scales with Q."""
        return self.tol.residual_tol * max(1.0, op_norm_2(self.q))

    def back(self, y: np.ndarray) -> np.ndarray:
        """The solution x = L y L* of the Q equation from a unit solution y, symmetrised."""
        x = self.q_factor @ y @ self.q_factor.conj().T
        return (x + x.conj().T) / 2.0


@dataclass
class SolveOutcome:
    """A certified solution together with how it was reached.

    trace holds the per-step change norms ||W_k - W_(k-1)||_2 of the iteration
    that produced the solution, as an ``array('d')`` (8 bytes a step).  The
    generic loop evaluates them in stacked blocks, bitwise equal to one norm
    per step.  rate_certificate is ||conj(Y)^-1 C|| for the unit-Q solution Y
    the iteration reached and its coefficient C (||W^-1 B|| for the classical
    equation); when below one, the iteration provably converges at least
    linearly, ``linear_rate_guaranteed`` says so, and Y is maximal.
    """

    solution: np.ndarray
    kind: str
    iterations: int
    residual: float
    trace: array[float]
    rate_certificate: float

    @property
    def linear_rate_guaranteed(self) -> bool:
        return self.rate_certificate < 1.0


def normalize_q(p: ProblemInstance) -> np.ndarray:
    """Coefficient of the unit right-hand side problem, a_q = conj(L)^-1 a L^-* with Q = L L*.

    a_q comes from two solves against L and conj(L), with no inverse; ``p.back`` maps a unit
    solution y to x = L y L*.  Any factor of Q gives a unitarily congruent unit problem.
    ProblemInstance calls this once, and every route reads ``p.a_q``.
    """
    lower = p.q_factor
    return np.linalg.solve(np.conj(lower), np.linalg.solve(lower, adjoint(p.a)).conj().T)


@functools.lru_cache(maxsize=8)
def _identity(m: int) -> np.ndarray:
    eye = np.eye(m, dtype=np.complex128)
    eye.flags.writeable = False
    return eye


def _step(lower: np.ndarray, coeff: np.ndarray, conjugate_iterate: bool) -> tuple[np.ndarray, np.ndarray]:
    """(symmetrised I - G, G), G = Z* Z, Z = inner(L)^-1 C: conj(L) factors conj(W) when L factors W."""
    # L passed the pivot floor, so it is nonsingular and the gufunc solve cannot refuse it
    z = _lapack.solve(np.conj(lower) if conjugate_iterate else lower, coeff)
    gram = z.conj().T @ z
    w_next = _identity(coeff.shape[0]) - gram
    return (w_next + w_next.conj().T) / 2.0, gram


def _cone_step(
    w: np.ndarray, coeff: np.ndarray, conjugate_iterate: bool
) -> tuple[np.ndarray | None, float, np.ndarray | None]:
    """W -> I - C* inner(W)^-1 C, inner(W) = W or conj(W), from one Cholesky factor of W.

    Returns (next iterate, margin, Gram C* inner(W)^-1 C), the first and last None if W fails the
    pivot floor.  The solver loop and the ladders step here; the lower ladder reads the Gram,
    which carries the small rungs without the cancellation of I - conj(next iterate).
    """
    lower, margin = _cholesky_lower(w)
    if lower is None:
        return None, margin, None
    w_next, gram = _step(lower, coeff, conjugate_iterate)
    return w_next, margin, gram


# every route refuses through these two, so each words a failure alike
def _left_the_cone(iterate: int, margin: float, trace: array[float]) -> NoSolutionEvidence:
    message = f"iterate {iterate} lost positive definiteness (pivot margin {margin:.3e})"
    return NoSolutionEvidence(message, iterate, trace)


def _out_of_iterations(tol: Tolerances, trace: array[float]) -> MaxIterationsExceeded:
    message = f"no certified solution within {tol.max_iter} iterations"
    return MaxIterationsExceeded(message, tol.max_iter, trace)


def _refuse_huge(coeff: np.ndarray) -> None:
    """Refuse, before any Gram can overflow, a C with a part beyond 2^64: W_1 = I - C* C leaves the cone."""
    if top := _huge_part(coeff):
        raise NoSolutionEvidence(f"iterate 1 lost positive definiteness (||C|| >= {top:.3e} > 1)", 1)


def _defect(w: np.ndarray, coeff: np.ndarray) -> float:
    """||W - (I - C* W^-1 C)||, the equation defect of W and so its next update step; inf below the floor."""
    lower, _ = _cholesky_lower(w)
    return math.inf if lower is None else hermitian_norm_2(w - _step(lower, coeff, False)[0])


# byte budget of the trace block: 32 changes at 2n = 8, 16 at 2n = 16, one at 2n = 64
_TRACE_BLOCK_BYTES = 1 << 16
_TRACE_BLOCK_STEPS = 32


def _fixed_point_generic(coeff: np.ndarray, tol: Tolerances) -> tuple[np.ndarray, int, array[float], float]:
    """The matrix loop W <- I - C* W^-1 C from W = I, for any square coefficient C.

    _step symmetrises every iterate, so each change D_k = W_k - W_(k-1) is exactly Hermitian;
    iterates are positive definite and below I, so ||W|| <= 1 and no stop fires while
    ||D_k|| > 2 STOP_REL.  As |tr D_k| / m <= ||D_k||, the norm is needed at once only where
    |tr D_k| <= 2 m (2 STOP_REL), a 2x slack for rounding.  Other trace entries wait in a
    preallocated block, and one stacked eigvalsh gives a block's norms, bitwise those of one
    call per step.  The block is flushed before each needed norm and before every raise, so a
    trace is always complete and in order.
    """
    m = coeff.shape[0]
    w = np.eye(m, dtype=np.complex128)
    trace = array("d")
    # kernel.STOP_REL, not a copy of it: one rule decides every stop
    near_stop = 2.0 * kernel.STOP_REL
    block = np.empty((max(1, min(_TRACE_BLOCK_STEPS, _TRACE_BLOCK_BYTES // (16 * m * m))), m, m), complex)
    filled = 0

    def flush() -> None:
        nonlocal filled
        trace.extend(hermitian_norms_2(block[:filled]) if filled else ())
        filled = 0

    for k in range(1, tol.max_iter + 1):
        w_next, margin, _ = _cone_step(w, coeff, False)
        if w_next is None:
            flush()
            raise _left_the_cone(k - 1, margin, trace)
        d = np.subtract(w_next, w, out=block[filled])
        filled += 1
        if abs(d.trace().real) <= m * near_stop * 2.0:
            flush()
            change = trace[-1]
            if change <= near_stop and change <= kernel.STOP_REL * hermitian_norm_2(w):
                res = _defect(w_next, coeff)
                if res <= tol.residual_tol:
                    return w_next, k, trace, res
        elif filled == len(block):
            flush()
        w = w_next
    flush()
    raise _out_of_iterations(tol, trace)


def _fixed_point_scalar(coeff: np.ndarray, tol: Tolerances) -> tuple[np.ndarray, int, array[float], float]:
    """The generic loop for a 1x1 coefficient b: y <- 1 - s/y, s = |b|^2, from y = 1.

    Float arithmetic with the generic loop's pivot floor, stopping rule,
    residual certificate and errors.  Only the conjugate n = 1 route runs it,
    whose lozenge iterates are y I_2: its boundary instances (|b| = 1/2) run
    to the iteration cap, and a float step costs about a hundredth of a
    generic matrix step.
    """
    # numpy's array modulus, which can differ from abs() of the element in the last bit
    s = float(np.abs(coeff)[0, 0] ** 2)
    trace = array("d")
    stop_rel = kernel.STOP_REL
    y = 1.0
    for k in range(1, tol.max_iter + 1):
        # y I_2 has pivot margin y / y = 1 while y > 0, so PD_FLOOR < 1 refuses it only here
        if y <= 0.0:
            raise _left_the_cone(k - 1, y, trace)
        y_next = 1.0 - s / y
        change = abs(y_next - y)
        trace.append(change)
        if change <= stop_rel * y:
            res = abs(y_next - (1.0 - s / y_next)) if y_next > 0.0 else math.inf
            if res <= tol.residual_tol:
                return np.array([[y_next]], dtype=np.complex128), k, trace, res
        y = y_next
    raise _out_of_iterations(tol, trace)


def _doubling_iterates(a: np.ndarray, conjugate: bool) -> Iterator[tuple[np.ndarray, ...]]:
    """(Q_j, P_j) of doubling (Lin & Xu, SIMAX 2006), j = 1, 2, ...: Q_j = iterate 2^j - 1 of the loop from I.

    ``conjugate`` picks step 1, as _cone_step's flag picks inner(W).  For Y + a* conj(Y)^-1 a = I
    it is the heart preimage of doubling on lozenge(a): Q = I - a* a = R_1, P = conj(a a*) = S_1,
    B = conj(a) a, and Q_j = R_(2^j - 1), P_j = S_(2^j - 1) are the unit rungs of both ladders.
    P_j is a sum of positive semidefinite Grams, so it keeps a small X- without the cancellation
    of I - conj(Y).  For the classical W + a* W^-1 a = I it is SDA's step from (I, 0, a):
    Q = I - a* a, P = a a*, B = a^2.  Each later step is complex SDA, Q <- Q - B* (Q - P)^-1 B,
    P <- P + B (Q - P)^-1 B*, B <- B (Q - P)^-1 B, from the Cholesky factor of Q_j - P_j; a pivot
    floor refusal ends the run.  Once B is exactly zero no later step changes Q or P, so the run
    also ends after that step's factor.  The yielded arrays are never written again.
    """
    n = a.shape[0]
    q = np.eye(n) - a.conj().T @ a
    p, b = (np.conj(a @ a.conj().T), np.conj(a) @ a) if conjugate else (a @ a.conj().T, a @ a)
    while True:
        yield q, p
        lower = _cholesky_lower(q - p)[0]
        if lower is None or not b.any():
            return
        # an accepted factor has a positive diagonal, so the solve cannot refuse it
        z = _lapack.solve(lower, np.hstack([b, b.conj().T]))
        z1, z2 = z[:, :n], z[:, n:]
        q = q - z1.conj().T @ z1
        p = p + z2.conj().T @ z2
        b = z2.conj().T @ z1


def standard_solve_maximal(b, tol: Tolerances = DEFAULT_TOLERANCES) -> SolveOutcome:
    """Maximal positive definite solution of X + B* X^-1 B = I, by doubling for every size of B.

    Step j of doubling is Q_j = W_(2^j - 1) of the monotone iteration W_(k+1) = I - B* W_k^-1 B
    from W_0 = I, which decreases onto the maximal solution from above whenever one exists, so
    a Q_j that passes the residual test is that solution; doubling halves the error each step
    even on the existence boundary, where the iteration converges like 1/k.  Step j records the
    change ||Q_j - Q_(j-1)|| from Q_0 = I in ``trace`` and stops once it is at most
    STOP_REL ||Q_j|| (a bitwise repeat included) and the equation residual certifies Q_j below
    residual_tol.  ``iterations`` counts the steps and ``max_iter`` caps them: the run raises
    MaxIterationsExceeded only when the cap, not the run, ends it.  Where Q_j - P_j fails the
    pivot floor or B_j vanishes, Q_j is accepted if it passes, and otherwise the fixed point
    loop runs from I: every refusal (NoSolutionEvidence once an iterate leaves the positive
    definite cone) is the loop's, with its iterate, margin, message and trace.  A part of B
    beyond 2^64 is refused at iterate 1 before doubling forms a Gram, as the conjugate solves
    refuse it.
    """
    b = _require_square(cmatrix(b), "standard_solve_maximal")
    _refuse_huge(b)

    def certified(q: np.ndarray, j: int) -> tuple[np.ndarray, int, array[float], float] | None:
        w = (q + q.conj().T) / 2.0
        res = _defect(w, b)
        return (w, j, trace, res) if res <= tol.residual_tol else None

    trace = array("d")
    previous = _identity(b.shape[0])
    for j, (q, _) in enumerate(_doubling_iterates(b, False), 1):
        if j > tol.max_iter:
            raise _out_of_iterations(tol, trace)
        change = hermitian_norm_2(q - previous)
        trace.append(change)
        if change <= kernel.STOP_REL * hermitian_norm_2(q) and (found := certified(q, j)):
            break
        previous = q
    else:
        # Q_j - P_j failed the pivot floor, or B_j vanished
        found = certified(q, j) or _fixed_point_generic(b, tol)
    w, iterations, trace, res = found
    certificate = op_norm_2(cholesky_solve(pd_cholesky(w), b))
    return SolveOutcome(w, "maximal", iterations, res, trace, certificate)


def _unit_maximal(a_q: np.ndarray, tol: Tolerances) -> tuple[np.ndarray, int, array[float]]:
    """(Y, iterations, trace) of Y + a_q* conj(Y)^-1 a_q = I from the loop alone; the solves certify Y maximal.

    The generic loop runs on lozenge(a_q) and converges to heart(Y); at n = 1 its iterates are
    y I_2 with y <- 1 - |a_q|^2 / y, so the scalar loop runs on a_q.
    """
    _refuse_huge(a_q)
    if a_q.shape[0] == 1:
        y, iterations, trace, _ = _fixed_point_scalar(a_q, tol)
    else:
        w, iterations, trace, _ = _fixed_point_generic(lozenge(a_q), tol)
        y = unheart(w)
        y = (y + y.conj().T) / 2.0
    return y, iterations, trace


def _certified_rate(lower: np.ndarray, coeff: np.ndarray, name: str) -> float:
    """r = ||M||, M = conj(Y)^-1 C, of the unit solution Y = L L* of C, once Y is certified maximal.

    Y is maximal iff rho(M conj(M)) <= 1 (extremality_check's rule), and rho(M conj(M)) <= r^2: r < 1
    certifies it, else co_spectral_radius_vs_one decides, and "above" or a non-finite r raises.
    """
    m = cholesky_solve(np.conj(lower), coeff)
    r = op_norm_2(m)
    # written so that a NaN r is refused too
    if not r < 1.0:
        ordering, rho = co_spectral_radius_vs_one(m) if math.isfinite(r) else ("above", r)
        if ordering == "above":
            raise InternalInconsistency(f"{name} is not maximal: rho(M conj(M)) = {rho:.3e} exceeds 1")
    return r


def solve_maximal(p: ProblemInstance) -> SolveOutcome:
    """Maximal positive definite solution of X + A* conj(X)^-1 A = Q.

    Solves the unit-Q equation of p.a_q, certified below residual_tol and
    maximal, and maps the solution back; the back-mapped solution is certified
    again in the original equation, below p.residual_bound = residual_tol * max(1, ||Q||).
    """
    y, iterations, trace = _unit_maximal(p.a_q, p.tol)
    x = p.back(y)
    # the engine has certified the unit solution positive definite
    refusal = InternalInconsistency, "unit solution fails the pivot floor"
    lower, res = _tail(x, y, p, refusal, "back-mapped")
    certificate = _certified_rate(lower, p.a_q, "unit solution")
    return SolveOutcome(x, "maximal", iterations, res, trace, certificate)


def solve_minimal(p: ProblemInstance) -> SolveOutcome:
    """Minimal positive definite solution of X + A* conj(X)^-1 A = Q.

    Uses the substitution Y = I - conj(X), which turns the unit-Q equation
    into the same equation with coefficient A*; the maximal solution of that
    dual problem maps back to the minimal solution of the original one as
    X = I - conj(Y).  That difference cancels when X is small, so X is taken
    as the Hermitian part of the equal product conj(A) Y^-1 A^T (Y solves
    Y + A conj(Y)^-1 A* = I, and is certified maximal).  The result is
    certified by its residual in the original equation, below
    p.residual_bound.  X- is singular exactly when A is, so a singular A
    raises SingularCoefficient from the pivot-floor test of the unit
    X- = Z* Z, taken on the triangular factor of Z.
    """
    coeff = adjoint(p.a_q)
    dual, iterations, trace = _unit_maximal(coeff, p.tol)
    lower, margin = _cholesky_lower(dual)
    if lower is None:
        # the engine has certified Y positive definite
        raise InternalInconsistency(f"dual solution fails the pivot floor (pivot margin {margin:.3e})")
    # conj(a_q) Y^-1 a_q^T = Z* Z with Z = L^-1 a_q^T
    z = np.linalg.solve(lower, p.a_q.T)
    y = z.conj().T @ z
    y = (y + y.conj().T) / 2.0
    # Z* Z is positive semidefinite, so a Y- below the floor is a singular X-, not a failure;
    # Z = Q R gives the pivots |r_kk|^2 of Z* Z without the rounding that squaring adds to them
    refusal = SingularCoefficient, "minimal solution is singular to the pivot floor"
    scale = max(float(y.trace().real) / p.n, 0.0) or 1.0
    smallest = float(np.abs(np.linalg.qr(z, mode="r").diagonal()).min()) ** 2
    # kernel.PD_FLOOR, not a copy of it: one floor decides every pivot
    if smallest <= kernel.PD_FLOOR * scale:
        raise refusal[0](f"{refusal[1]} (pivot margin {smallest / scale:.3e})")
    x = p.back(y)
    res = _tail(x, y, p, refusal, "dual-route")[1]
    certificate = _certified_rate(lower, coeff, "dual solution")
    return SolveOutcome(x, "minimal", iterations, res, trace, certificate)


def _extremal_pair(p: ProblemInstance) -> tuple[np.ndarray, np.ndarray] | None:
    """(X+, X-) of p from one doubling run on p.a_q, or None where the two solves must decide.

    Step j gives the unit rungs Q_j = R_(2^j - 1) above X+ and P_j = S_(2^j - 1) below X-.  The
    run stops once both changes are at most STOP_REL relative, with Q_0 = I and P_0 = 0, and gives
    up once 2^j - 1 > max_iter: step j is that iterate of the loop, so the cap means what it means
    there.  The pivot floor factors Q_j - P_j, and the back-mapped Hermitian parts of Q_j and P_j
    must pass _tail against p.residual_bound.  Any refusal (floor, residual or cap) returns None.
    """
    tol = p.tol
    previous = _identity(p.n), np.zeros((p.n, p.n), dtype=np.complex128)
    iterates = _doubling_iterates(p.a_q, True)
    for j, pair in enumerate(iterates, 1):
        if 2**j - 1 > tol.max_iter:
            return None
        changes = zip(pair, previous)
        if all(hermitian_norm_2(new - old) <= kernel.STOP_REL * hermitian_norm_2(new) for new, old in changes):
            break
        previous = pair
    else:
        # the floor refused Q_j - P_j, or B_j vanished before both changes were small
        return None
    solutions = []
    for unit in pair:
        y = (unit + unit.conj().T) / 2.0
        x = p.back(y)
        try:
            res = _tail(x, y, p, (NotPositiveDefiniteError, "extremal solution"))[1]
        except NotPositiveDefiniteError:
            return None
        # written so that a NaN residual is refused too
        if not res <= p.residual_bound:
            return None
        solutions.append(x)
    return tuple(solutions)


def _tail(x, y, p: ProblemInstance, refusal, route: str | None = None) -> tuple[np.ndarray, float]:
    """(L_y, residual) of a solution x = L y L*, Q = L L*, from one factor of its unit-Q image y.

    Factoring y is the only pivot-floor test a solution gets (the congruence by L preserves
    solutions and the Loewner order); y below the floor raises refusal = (class, message).
    L L_y factors x, so x is never factored.  A solve names its ``route``: p.residual_bound gates it.
    """
    lower, margin = _cholesky_lower(y)
    if lower is None:
        raise refusal[0](f"{refusal[1]} (pivot margin {margin:.3e})")
    # conj(L L_y) factors conj(x)
    res = op_norm_2(x + adjoint(p.a) @ cholesky_solve(np.conj(p.q_factor @ lower), p.a) - p.q)
    # written so that a NaN residual is refused too
    if route is not None and not res <= p.residual_bound:
        raise InternalInconsistency(f"{route} residual {res:.3e} exceeds tolerance {p.residual_bound:.3e}")
    return lower, res


def _given(x: np.ndarray, p: ProblemInstance) -> tuple[np.ndarray, float]:
    if x.shape != p.a.shape:
        raise DimensionError(f"solution shape {x.shape} does not match coefficient shape {p.a.shape}")
    # a caller's x maps to y = L^-1 x L^-*, and the factor reads y's lower triangle
    y = _congruence(p.q_factor, _require_hermitian(x, "solution"))
    return _tail(x, y, p, (NotPositiveDefiniteError, "matrix is not positive definite to tolerance"))


def residual(x, p: ProblemInstance) -> float:
    """Equation defect ||x + a* conj(x)^-1 a - q||_2; x must clear the pivot floor in the unit problem."""
    return _given(cmatrix(x), p)[1]


def extremality_check(x, p: ProblemInstance, kind: str) -> tuple[bool, float]:
    """Certify that a solution is the maximal or minimal one.

    The maximal solution is the unique one whose conjugate inverse times the
    coefficient has con-spectral radius at most 1; the minimal solution is
    the unique one where the adjoint-coefficient variant is at least 1.  The
    test runs on the unit-Q normalization and returns the underlying value
    rho(M conj(M)) alongside the verdict.  A residual above p.residual_bound
    raises NotASolution, the rule that accepts a solve's result.
    """
    if kind not in ("maximal", "minimal"):
        raise ValueError(f"kind must be 'maximal' or 'minimal', got {kind!r}")
    lower, res = _given(cmatrix(x), p)
    # written so that a NaN residual is refused too
    if not res <= p.residual_bound:
        raise NotASolution(f"residual {res:.3e} exceeds tolerance; not a solution")
    # lower factors the unit-Q solution y = L^-1 x L^-*, so conj(y)^-1 is applied through it
    coeff = p.a_q if kind == "maximal" else adjoint(p.a_q)
    ordering, value = co_spectral_radius_vs_one(cholesky_solve(np.conj(lower), coeff))
    return ordering in (("below", "at") if kind == "maximal" else ("at", "above")), value
