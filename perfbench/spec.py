"""Metric and workload definitions, and the BENCHMARK.json they render to.

This module is the single source of the metric names, units and bounds:
the runner reports exactly these names and ``run.py --write-spec`` writes
them to BENCHMARK.json.
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"

RUN_SECONDS = 20

WORKLOADS = {
    "solve": "solve_maximal then solve_minimal at n 4-32, ||A|| in [0.05, 0.49]; "
    "kernel factorisations dominate, the numerical radius and ladders stay idle",
    "near-critical": "solve_maximal with omega(lozenge A) = 1/2 - eps at n 1-8; cost is "
    "set by the iteration count, and only here the n <= 2 scalar twin runs",
    "certify": "check_existence at n 4-16 across the exact, near-band, singular and "
    "||A|| > 1 cases; numerical and spectral radius dominate, the solver is idle",
    "cli-batch": "in-process cli.main over generated JSON/text files: solve --minimal, "
    "check, trace and bounds at depth 6 and 48; ladders, parsing and output",
}

# (name, unit, better, bound).  Timings are scaled to a nominal host speed
# (see hostspeed.py); unscaled, the drift of a shared 2-core host spreads
# them by +-20% between runs.
END_TO_END = [
    ("instances_per_s", "1/s", "higher", 0.25),
    ("latency_ms_p50", "ms", "lower", 0.25),
    ("latency_ms_p90", "ms", "lower", 0.25),
    ("accuracy_digits_p50", "digits", "higher", 0.15),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

KERNEL_FUNCTIONS = (
    "mat_inverse",
    "is_positive_definite",
    "op_norm_2",
    "psd_sqrt",
    "cholesky_solve",
    "numerical_radius",
    "spectral_radius",
)
EMBEDDING_FUNCTIONS = ("lozenge", "unheart", "is_con_normal", "co_spectral_radius_vs_one")
SOLVER_FUNCTIONS = (
    "solve_maximal",
    "solve_minimal",
    "standard_solve_maximal",
    "normalize_q",
    "residual",
)
# exception classes counted separately when they leave the solver layer
SOLVER_ERRORS = (
    "MaxIterationsExceeded",
    "NoSolutionEvidence",
    "InternalInconsistency",
    "SingularCoefficient",
)

# Per-layer metrics are normalised per traced operation ("/op") so that runs
# of different length compare; "computed" marks values derived from array
# sizes rather than measured.
PER_LAYER = (
    [(f"kernel.{f}.calls", "count/op") for f in KERNEL_FUNCTIONS]
    + [(f"kernel.{f}.self_s", "s/op") for f in KERNEL_FUNCTIONS]
    + [
        ("embedding.calls", "count/op"),
        ("embedding.self_s", "s/op"),
        ("solver.iterations", "count/op"),
    ]
    + [(f"solver.{f}.s", "s/op") for f in SOLVER_FUNCTIONS]
    + [("solver.cross_check_s", "s/op")]
    + [(f"solver.errors.{e}", "count/op") for e in SOLVER_ERRORS]
    + [
        ("solver.errors.other", "count/op"),
        ("conditions.check_existence.calls", "count/op"),
        ("conditions.check_existence.s", "s/op"),
        ("conditions.check_existence.self_s", "s/op"),
        ("conditions.decided_frac", "ratio"),
        ("bounds.build_ladder.calls", "count/op"),
        ("bounds.build_ladder.s", "s/op"),
        ("bounds.build_ladder.self_s", "s/op"),
        ("bounds.sandwich_report.s", "s/op"),
        ("bounds.rungs", "count/op"),
        ("bounds.ladder_blocks_mb", "MB-computed"),
        ("cli.main.calls", "count/op"),
        ("cli.main.s", "s/op"),
        ("cli.self_s", "s/op"),
        ("cli.report_bytes", "B/op"),
        ("trace.ops", "count"),
        ("trace.untraced_instances_per_s", "1/s"),
        ("trace.traced_instances_per_s", "1/s"),
        ("trace.overhead_frac", "ratio"),
    ]
)

# Which way each per-layer metric should move for an improvement.
_HIGHER_IS_BETTER = {
    "conditions.decided_frac",
    "trace.untraced_instances_per_s",
    "trace.traced_instances_per_s",
    "trace.ops",
}


def units() -> dict[str, str]:
    table = {name: unit for name, unit, _, _ in END_TO_END}
    table.update(dict(PER_LAYER))
    return table


def render() -> dict:
    """The BENCHMARK.json document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {
                "name": name,
                "unit": unit,
                "better": "higher" if name in _HIGHER_IS_BETTER else "lower",
            }
            for name, unit in PER_LAYER
        ],
    }


def write() -> None:
    SPEC_PATH.write_text(json.dumps(render(), indent=2) + "\n", encoding="utf-8")
