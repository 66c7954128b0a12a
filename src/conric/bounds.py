"""Monotone solution bounds, read off the solver's own fixed-point iterates.

Let Y_k(C) be the k-th iterate of Y <- I - C* conj(Y)^-1 C from Y_0 = I.
With C = A it decreases onto the maximal solution X+ and stays above every
solution; with C = A* it decreases onto the dual maximal solution, which
Y -> I - conj(Y) maps to the minimal solution X-.  Hence the ladders

    upper  R_k = Y_k(A),   lower  S_k = I - conj(Y_k(A*)),

with S_1 <= ... <= S_k <= X- <= X <= X+ <= R_k <= ... <= R_1 for every
positive definite solution X.  The rungs are the Schur complements of the
bordered blocks in :attr:`BoundsLadder.ladder_blocks`, with the conjugation
alternating: on the upper side the Schur complement of H_k in H_(k+1) is R_k
for odd k and conj(R_k) for even k; on the lower side I minus it is conj(S_k)
for odd k and S_k for even k.  The first three rungs have the closed forms of
:func:`closed_form_bounds`.

Rung k is one step from a Cholesky factor of Y_{k-1}, which never inverts
A, so both ladders exist for singular A; its smallest pivot over trace/n is
the margin.  A margin <= 0 certifies that no positive
definite solution exists and raises :class:`LadderBreakdown` with
``rung = k`` and the side; a positive margin below the floor stops the
ladder with ``truncated_at = k``, keeping rungs 1..k-1.

:func:`sandwich_report` measures X- and X+ against the deepest rungs.  It
takes both from one doubling run on the unit coefficient, whose step j is the
pair of unit rungs R_(2^j - 1), S_(2^j - 1), and runs the solves only where
that run refuses, so every refusal (an iteration cap, a singular X-, no
solution past the ladders) is the solves'.

Like the solves, :func:`build_ladder` and :func:`sandwich_report` take a
:class:`ProblemInstance` p.  The recurrence runs on its unit coefficient
``p.a_q`` and maps each rung back by ``p.back``, X = L Y L* with L the
Cholesky factor of Q = L L*; the congruence preserves the Loewner order, so
the rungs bound every solution of the Q equation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import cycle, islice

import numpy as np

from .kernel import (
    adjoint,
    cmatrix,
    conj,
    pd_solve,
    transpose,
    _huge_part,
    _require_square,
    _scaled,
)
from .solver import (
    NoSolutionEvidence,
    ProblemInstance,
    _cone_step,
    _extremal_pair,
    solve_maximal,
    solve_minimal,
)

# Default ladder depth; deeper rungs gain little and erode numerically.
DEFAULT_DEPTH = 6


class LadderBreakdown(NoSolutionEvidence):
    """A ladder iterate left the positive definite cone.

    On exact arithmetic this certifies that the equation has no positive
    definite solution.  ``rung`` is the rung that would have inverted it,
    on the ladder ``side``.
    """

    def __init__(self, message: str, rung: int, side: str):
        super().__init__(message, iterations=rung - 1)
        self.rung = rung
        self.side = side


@dataclass
class BoundsLadder:
    """Bound matrices S_1..S_K (lower) or R_1..R_K (upper) with diagnostics.

    monotone_gaps[k] is the smallest eigenvalue of the difference between
    consecutive bounds oriented so that nonnegative means monotone;
    coefficient is the a_q the recurrence ran on.  truncated_at is set when
    an iterate fell below the pivot floor while still positive.
    """

    side: str
    depth: int
    matrices: list[np.ndarray]
    monotone_gaps: list[float]
    coefficient: np.ndarray
    truncated_at: int | None = None

    @property
    def ladder_blocks(self) -> list[np.ndarray]:
        """Bordered blocks H_1 = I, H_{k+1} = [[H_k, B*], [B, I]] of a_q, as read-only views of H_K.

        B = [0 ... 0, b_k], b_k alternating A, conj(A) (lower) or A*, A^T (upper).
        """
        a = self.coefficient
        n = a.shape[0]
        borders = (a, conj(a)) if self.side == "lower" else (adjoint(a), transpose(a))
        h = np.eye(self.depth * n, dtype=np.complex128)
        for k in range(1, self.depth):
            b = borders[(k + 1) % 2]
            h[k * n : (k + 1) * n, (k - 1) * n : k * n] = b
            h[(k - 1) * n : k * n, k * n : (k + 1) * n] = adjoint(b)
        h.flags.writeable = False
        return [h[: k * n, : k * n] for k in range(1, self.depth + 1)]


def _min_eig(h: np.ndarray):
    """Smallest eigenvalue of the Hermitian part of h, or a list of them for a stack, in one call.

    It is taken on h scaled by an exact power of two (kernel._scaled), one for the whole stack,
    and scaled back, so the gaps of (tA, tQ) are exactly t times those of (A, Q) for t = 2^k.
    """
    h, exponent = _scaled(h)
    # symmetrised here, so hermitian_eigen's Hermitian check could not fire
    smallest = np.linalg.eigvalsh((h + np.swapaxes(h, -1, -2).conj()) / 2.0)[..., 0]
    return (smallest * 2.0**exponent).tolist()


def build_ladder(p: ProblemInstance, side: str, depth: int = DEFAULT_DEPTH) -> BoundsLadder:
    """Bound ladder of the requested side of p's equation, down to ``depth``.

    Rung k is a function of the iterate Y_(k-1) alone, so once Y_(k-1) equals an earlier
    Y_(j-1) bitwise, rungs k..depth repeat rungs j..k-1 with period k - j.  They are appended
    as the same read-only arrays, and their gaps repeat the gaps of the distinct rungs.
    """
    if side not in ("lower", "upper"):
        raise ValueError(f"side must be 'lower' or 'upper', got {side!r}")
    if depth < 1:
        raise ValueError("depth must be at least 1")
    # a_q and its adjoint have the same largest part, which reads inf where a_q overflowed
    if top := _huge_part(p.a_q):
        message = f"{side} ladder iterate 1 is not positive definite (||C|| >= {top:.3e} > 1)"
        raise LadderBreakdown(f"{message}; no positive definite solution exists", rung=2, side=side)
    coeff = p.a_q if side == "upper" else adjoint(p.a_q)

    y = np.eye(p.n, dtype=np.complex128)
    matrices: list[np.ndarray] = []
    stepped_from: dict[bytes, int] = {}  # bytes of an iterate -> index of the rung stepped from it
    start: int | None = None  # index of the first rung of the cycle, once one is found
    truncated_at: int | None = None
    for k in range(1, depth + 1):
        first = stepped_from.setdefault(y.tobytes(), k - 1)
        if first < k - 1:
            start = first
            break
        y_next, margin, gram = _cone_step(y, coeff, True)
        if y_next is None:
            # a NaN margin breaks the ladder down too: only a positive one truncates it
            if not margin > 0.0:
                raise LadderBreakdown(
                    f"{side} ladder iterate {k - 1} is not positive definite "
                    f"(pivot margin {margin:.3e}); no positive definite solution exists",
                    rung=k,
                    side=side,
                )
            truncated_at = k
            break
        y = y_next
        # I - conj(Y_k) = conj(G_k) in exact arithmetic, and the Gram keeps the digits
        # that the difference cancels when the rung is small
        rung = p.back(y if side == "upper" else np.conj((gram + gram.conj().T) / 2.0))
        rung.flags.writeable = False
        matrices.append(rung)
    sign = -1.0 if side == "upper" else 1.0
    # the last difference of a cycle wraps round to its first rung
    stack = matrices + ([] if start is None else matrices[start : start + 1])
    gaps = _min_eig(sign * np.diff(stack, axis=0)) if len(stack) > 1 else []
    if start is not None:
        distinct = len(matrices)
        matrices += islice(cycle(matrices[start:]), depth - distinct)
        gaps += islice(cycle(gaps[start:]), depth - 1 - distinct)
    return BoundsLadder(side, len(matrices), matrices, gaps, p.a_q, truncated_at)


def closed_form_bounds(a, which: str) -> np.ndarray:
    """Explicit first three rungs of either ladder.

        S1 = conj(A A*)
        S2 = conj(A) (I - A A*)^-1 A^T
        S3 = conj(A) (I - A (I - conj(A A*))^-1 A*)^-1 A^T
        R1 = I - A* A
        R2 = I - A* (I - conj(A* A))^-1 A
        R3 = I - A* (I - A^T (I - A* A)^-1 conj(A))^-1 A

    Inner inverses are evaluated through Cholesky solves, so an inner matrix
    that is not positive definite raises rather than returning garbage.
    """
    a = _require_square(cmatrix(a), "closed_form_bounds")
    n = a.shape[0]
    eye = np.eye(n, dtype=np.complex128)
    ah = adjoint(a)
    at = transpose(a)
    ac = conj(a)

    def sym(m: np.ndarray) -> np.ndarray:
        return (m + m.conj().T) / 2.0

    if which == "S1":
        return sym(np.conj(a @ ah))
    if which == "S2":
        return sym(ac @ pd_solve(sym(eye - a @ ah), at))
    if which == "S3":
        inner = sym(eye - a @ pd_solve(sym(eye - np.conj(a @ ah)), ah))
        return sym(ac @ pd_solve(inner, at))
    if which == "R1":
        return sym(eye - ah @ a)
    if which == "R2":
        return sym(eye - ah @ pd_solve(sym(eye - np.conj(ah @ a)), a))
    if which == "R3":
        inner = sym(eye - at @ pd_solve(sym(eye - ah @ a), ac))
        return sym(eye - ah @ pd_solve(inner, a))
    raise ValueError(f"which must be one of S1..S3, R1..R3, got {which!r}")


@dataclass
class SandwichReport:
    """Solutions pinched between the deepest rungs of both ladders."""

    lower: BoundsLadder
    upper: BoundsLadder
    x_minus: np.ndarray
    x_plus: np.ndarray
    lower_gap: float  # min eig of x_minus - S_K
    upper_gap: float  # min eig of R_K - x_plus
    lower_trend: list[float]  # last two lower monotone gaps, how much S_k still moves
    consistent: bool


def sandwich_report(p: ProblemInstance, lower: BoundsLadder, upper: BoundsLadder) -> SandwichReport:
    """Both extremal solutions of p measured against the deepest rungs of p's ladders.

    X+ and X- come from one doubling run on p.a_q, whose step j is the pair of unit rungs
    R_(2^j - 1), S_(2^j - 1); where that run refuses (pivot floor, residual or iteration cap),
    solve_maximal and solve_minimal decide, so every refusal is theirs.  The ladders come from
    :func:`build_ladder`, so a breakdown of either has raised LadderBreakdown before any solve.
    A solvable instance with singular coefficient raises SingularCoefficient from solve_minimal.
    The lower trend is reported without any claim about where S_k converges.  Ladders passed in
    swapped order, or built on a coefficient other than p.a_q, raise ValueError.
    """
    for ladder, side in ((lower, "lower"), (upper, "upper")):
        if ladder.side != side:
            raise ValueError(f"expected the {side} ladder, got the {ladder.side} ladder")
        coeff = ladder.coefficient
        if coeff.shape != p.a_q.shape or coeff.tobytes() != p.a_q.tobytes():
            raise ValueError(f"the {side} ladder was built on another coefficient than p.a_q")
    pair = _extremal_pair(p)
    x_plus, x_minus = pair if pair is not None else (solve_maximal(p).solution, solve_minimal(p).solution)
    lower_gap = _min_eig(x_minus - lower.matrices[-1])
    upper_gap = _min_eig(upper.matrices[-1] - x_plus)
    trend = lower.monotone_gaps[-2:]
    # X(tA, tQ) = t X(A, Q), so the gaps' rounding scales with Q as the solves' acceptance does
    consistent = lower_gap > -p.residual_bound and upper_gap > -p.residual_bound
    return SandwichReport(lower, upper, x_minus, x_plus, lower_gap, upper_gap, trend, consistent)
