"""Positive definite solutions of the matrix equation X + A* conj(X)^-1 A = Q.

The equation couples the unknown to the inverse of its entrywise conjugate,
which makes its solution set disjoint from the classical X + A* X^-1 A = Q
one.  This package finds the extremal positive definite solutions through a
structured real embedding, certifies existence, and bounds every solution by
monotone Schur-complement ladders.
"""

from .bounds import (
    BoundsLadder,
    LadderBreakdown,
    SandwichReport,
    build_ladder,
    closed_form_bounds,
    sandwich_report,
)
from .conditions import (
    ConditionCheck,
    CrossValidation,
    ExistenceReport,
    NormExceedsHalf,
    NotConNormal,
    check_existence,
    con_normal_closed_form,
    cross_validate,
)
from .embedding import (
    NotHeartStructuredError,
    co_spectral_radius_vs_one,
    e_matrix,
    heart,
    heart_structure_drift,
    is_con_normal,
    lozenge,
    p_matrix,
    unheart,
)
from .kernel import (
    CheckResult,
    ConricError,
    DEFAULT_TOLERANCES,
    DimensionError,
    NotHermitianError,
    NotPositiveDefiniteError,
    SingularMatrixError,
    Tolerances,
    adjoint,
    cmatrix,
    conj,
    hermitian_eigen,
    is_positive_definite,
    mat_inverse,
    mat_mul,
    numerical_radius,
    op_norm_2,
    psd_sqrt,
    spectral_radius,
    transpose,
)
from .solver import (
    InternalInconsistency,
    MaxIterationsExceeded,
    NoSolutionEvidence,
    NotASolution,
    ProblemInstance,
    SingularCoefficient,
    SolveFailure,
    SolveOutcome,
    extremality_check,
    normalize_q,
    residual,
    solve_maximal,
    solve_minimal,
    standard_solve_maximal,
)

__version__ = "0.1.0"
