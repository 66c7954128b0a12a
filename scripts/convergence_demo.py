"""Convergence-history experiment.

Solves a couple of 2x2 instances, prints the per-step change norms and the
empirical contraction ratios against the a-posteriori rate certificate, and
shows how the same coefficient behaves under the classical (non-conjugated)
equation.  Pipe the trace into any plotting tool for the visual version.
"""

import numpy as np

from conric import ProblemInstance, solve_maximal, standard_solve_maximal

INSTANCES = {
    "demo-2x2": np.array([[0.25 + 0.25j, 0.25j], [-0.25j, 0.25 - 0.25j]]),
    "well-inside": np.array([[0.1 + 0.2j, 0.05], [0.02j, -0.15 + 0.1j]]),
}


def run(name: str, a: np.ndarray) -> None:
    out = solve_maximal(ProblemInstance(a))
    print(f"== {name}: converged in {out.iterations} iterations, "
          f"residual {out.residual:.3e}")
    print(f"   rate certificate {out.rate_certificate:.6f} "
          f"(guaranteed linear: {out.linear_rate_guaranteed}), "
          f"squared: {out.rate_certificate ** 2:.6f}")
    print("   k  change            ratio")
    for k, change in enumerate(out.trace):
        ratio = out.trace[k] / out.trace[k - 1] if k > 0 and out.trace[k - 1] else float("nan")
        print(f"   {k + 1:2d} {change:.6e}  {ratio:.4f}")
    print()


def main() -> None:
    for name, a in INSTANCES.items():
        run(name, a)

    a = INSTANCES["demo-2x2"]
    same_coeff = standard_solve_maximal(a)
    conjugated = solve_maximal(ProblemInstance(a))
    gap = np.linalg.norm(same_coeff.solution - conjugated.solution, 2)
    print("same coefficient, two equations:")
    print(f"  classical   X+' diag {same_coeff.solution[0, 0].real:.6f}")
    print(f"  conjugated  X+  diag {conjugated.solution[0, 0].real:.6f}")
    print(f"  separation in norm: {gap:.4f}")


if __name__ == "__main__":
    main()
