"""Existence certification for X + A* conj(X)^-1 A = I.

Three layers of evidence, strongest applicable one wins:

* necessary conditions (violations disprove existence),
* the sufficient norm bound ||A|| <= 1/2,
* for invertible A the exact criterion omega(lozenge(A)) <= 1/2.

Every threshold comparison carries the one classification band BAND = 1e-8,
wider than the rounding error of each estimate it classifies (the numerical
radius comes from level sets, accurate to rounding), and within-band
instances come back "undetermined" instead of being forced to a boolean:
boundary instances such as ||A|| exactly 1/2 are legitimately solvable and
must not be misclassified by rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .embedding import is_con_normal, lozenge
from .kernel import (
    BAND,
    ConricError,
    adjoint,
    cmatrix,
    hermitian_eigen,
    is_positive_definite,
    numerical_radius,
    op_norm_2,
    _nonsingular,
    _require_square,
    _scaled,
)
from .solver import (
    ProblemInstance,
    SingularCoefficient,
    SolveFailure,
    SolveOutcome,
    solve_maximal,
)


class NotConNormal(ConricError):
    pass


class NormExceedsHalf(ConricError):
    pass


class ConditionCheck(NamedTuple):
    name: str
    holds: bool
    margin: float


@dataclass
class ExistenceReport:
    """Per-condition booleans with signed margins plus an overall verdict."""

    necessary: list[ConditionCheck]
    sufficient_norm_half: ConditionCheck
    exact_invertible: ConditionCheck | None
    verdict: str  # "exists" | "not_exists" | "undetermined"

    def necessary_failures(self) -> list[ConditionCheck]:
        return [c for c in self.necessary if c.margin < -BAND]


def check_existence(a) -> ExistenceReport:
    """Evaluate all existence conditions for the unit right-hand side equation.

    Verdict logic: a necessary condition failing beyond its band disproves
    existence; the sufficient norm bound or, for invertible A, the exact
    numerical radius criterion prove it; the exact criterion failing beyond
    its band also disproves it (the criterion is two-sided for invertible A);
    anything else is undetermined.
    """
    a = _require_square(cmatrix(a), "check_existence")
    n = a.shape[0]
    # the checks run on s = a 2^-e (kernel._scaled), so no square overflows or underflows, and each
    # estimate is scaled back by 2^e per factor of a, to -inf where it overflows
    s, exponent = _scaled(a)
    up = 2.0**exponent
    eye = np.eye(n, dtype=np.complex128)

    # rho(M conj(M)) for M = s, s + s^T, s - s^T from one stacked eigvals, bitwise spectral_radius
    products = np.stack([m @ np.conj(m) for m in (s, s + s.T, s - s.T)])
    radii = np.abs(np.linalg.eigvals(products)).max(axis=1).tolist()
    rho_quarter, co_plus, co_minus = (c - r * up * up for c, r in zip((0.25, 1.0, 1.0), radii))
    norm_a = op_norm_2(s) * up
    # the Gram I - a a* - conj(a* a) = 4^k (4^-k I - g g* - conj(g* g)), g = a 2^-k: k = e above the
    # range, where the trace is negative and the margin an absolute pivot, scaled back; k = 0 below
    # it, where 4^-e could overflow and the products of a underflow harmlessly
    g, k = (s, exponent) if exponent > 0 else (a, 0)
    gram = 2.0 ** (-2 * k) * eye - g @ adjoint(g) - np.conj(adjoint(g) @ g)
    gram_ok, gram_margin = is_positive_definite((gram + gram.conj().T) / 2.0)
    gram_margin = gram_margin * 2.0**k * 2.0**k
    necessary = [
        ConditionCheck("rho_quarter", rho_quarter > 0.0, rho_quarter),
        ConditionCheck("norm_lt_one", norm_a < 1.0, 1.0 - norm_a),
        ConditionCheck("gram_sum", gram_ok, gram_margin),
        ConditionCheck("co_rho_plus", co_plus > 0.0, co_plus),
        ConditionCheck("co_rho_minus", co_minus > 0.0, co_minus),
    ]

    sufficient = ConditionCheck("norm_le_half", norm_a <= 0.5, 0.5 - norm_a)

    exact: ConditionCheck | None = None
    if _nonsingular(s)[0]:
        omega = numerical_radius(lozenge(s)) * up
        exact = ConditionCheck("omega_lozenge_le_half", omega <= 0.5, 0.5 - omega)

    if any(c.margin < -BAND for c in necessary):
        verdict = "not_exists"
    elif sufficient.margin > BAND:
        verdict = "exists"
    elif exact is not None and exact.margin > BAND:
        verdict = "exists"
    elif exact is not None and exact.margin < -BAND:
        verdict = "not_exists"
    else:
        verdict = "undetermined"
    return ExistenceReport(necessary, sufficient, exact, verdict)


def unit_existence(p: ProblemInstance) -> ExistenceReport:
    """check_existence(p.a_q), and the report of an a_q that overflowed where p formed it.

    Such an a_q has an infinite part and no NaN (normalize_q), which check_existence refuses as
    input: its norm is inf > 1, so norm_lt_one and norm_le_half fail with margin -inf and the
    verdict is not_exists; the other margins are NaN, since no finite arithmetic evaluates them.
    """
    if not np.isinf(p.a_q).any():
        return check_existence(p.a_q)
    names = ("rho_quarter", "norm_lt_one", "gram_sum", "co_rho_plus", "co_rho_minus")
    necessary = [ConditionCheck(name, False, -math.inf if name == "norm_lt_one" else math.nan) for name in names]
    return ExistenceReport(necessary, ConditionCheck("norm_le_half", False, -math.inf), None, "not_exists")


def con_normal_closed_form(a, want: str = "maximal") -> np.ndarray:
    """Closed form (I +- (I - 4 A* A)^(1/2)) / 2 for con-normal coefficients.

    Valid exactly when ||A|| <= 1/2 (for con-normal A that bound is also
    necessary); the minimal branch additionally needs A nonsingular.  The
    square root is evaluated spectrally with the tiny negative eigenvalues a
    within-band norm can produce clamped to zero.
    """
    if want not in ("maximal", "minimal"):
        raise ValueError(f"want must be 'maximal' or 'minimal', got {want!r}")
    a = _require_square(cmatrix(a), "con_normal_closed_form")
    ok, margin = is_con_normal(a)
    if not ok:
        raise NotConNormal(f"coefficient is not con-normal (margin {margin:.3e})")
    norm_a = op_norm_2(a)
    if norm_a > 0.5 + BAND:
        raise NormExceedsHalf(
            f"||A|| = {norm_a:.6f} > 1/2: no positive definite solution exists"
        )
    gram = adjoint(a) @ a
    w, v = hermitian_eigen((gram + gram.conj().T) / 2.0)
    if want == "minimal" and not _nonsingular(a)[0]:
        raise SingularCoefficient("minimal closed form needs a nonsingular coefficient")
    disc = np.sqrt(np.clip(1.0 - 4.0 * w, 0.0, None))
    eigs = (1.0 + disc) / 2.0 if want == "maximal" else (1.0 - disc) / 2.0
    x = (v * eigs) @ v.conj().T
    return (x + x.conj().T) / 2.0


@dataclass
class CrossValidation:
    """Agreement between the condition layer and the actual solve."""

    existence: ExistenceReport
    solver_succeeded: bool
    solver_error: str | None
    outcome: SolveOutcome | None
    consistent: bool
    note: str


def cross_validate(p: ProblemInstance) -> CrossValidation:
    """Run the existence checks on p's unit problem and the solver on p, and compare their answers.

    "exists" must come with a successful solve and "not_exists" with a solver
    failure; an undetermined verdict is consistent with either outcome and
    the solver result is attached as empirical evidence only.
    """
    report = unit_existence(p)
    outcome: SolveOutcome | None = None
    error: str | None = None
    try:
        outcome = solve_maximal(p)
        succeeded = True
    except SolveFailure as exc:
        error = f"{exc.classification}: {exc}"
        succeeded = False

    if report.verdict == "exists":
        consistent = succeeded
        note = "" if consistent else "internal-inconsistency: verdict exists but solver failed"
    elif report.verdict == "not_exists":
        consistent = not succeeded
        note = "" if consistent else "internal-inconsistency: verdict not_exists but solver succeeded"
    else:
        consistent = True
        note = "verdict undetermined; solver outcome is evidence, not proof"
    return CrossValidation(report, succeeded, error, outcome, consistent, note)
