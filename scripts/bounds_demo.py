"""Bound-ladder depth sweep.

For a few coefficients, build the lower and upper ladders at increasing
depth and print how tightly they pinch the extremal solutions.  The lower
rungs keep creeping toward the minimal solution; whether they reach it in
the limit is left open, so only the observed gaps are reported.
"""

import numpy as np

from conric import ProblemInstance, build_ladder, solve_maximal, solve_minimal

INSTANCES = {
    "demo-2x2": np.array([[0.25 + 0.25j, 0.25j], [-0.25j, 0.25 - 0.25j]]),
    "scalar-0.3": 0.3 * np.eye(1),
    "scalar-0.45": 0.45 * np.eye(1),
}


def min_eig(h: np.ndarray) -> float:
    return float(np.linalg.eigvalsh((h + h.conj().T) / 2.0)[0])


def main() -> None:
    for name, a in INSTANCES.items():
        p = ProblemInstance(a)
        x_plus = solve_maximal(p).solution
        x_minus = solve_minimal(p).solution
        print(f"== {name}")
        print("   K  min-eig(X- - S_K)   min-eig(R_K - X+)")
        for depth in range(1, 9):
            lower = build_ladder(p, "lower", depth)
            upper = build_ladder(p, "upper", depth)
            lo_gap = min_eig(x_minus - lower.matrices[-1])
            up_gap = min_eig(upper.matrices[-1] - x_plus)
            print(f"   {depth}  {lo_gap: .12e}  {up_gap: .12e}")
        print()


if __name__ == "__main__":
    main()
