"""Batch command line front door.

Subcommands: solve | check | bounds | trace.  Inputs are matrix files in
either a JSON document ({"n": ..., "re": [[...]], "im": [[...]], optional
"q_re"/"q_im"}) or a plain text form (a line with n, then n lines of n
"re,im" pairs).  Reports go to stdout (or --out) as JSON, or as text with
one "dotted.key = value" line per leaf, its value written as in JSON; every
float serializes round-trippably, an infinite or NaN one as null, since JSON
has neither.  Exit codes are part of the contract: EXIT_CODES gives the code
of each report classification, and an input error exits 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import sys
from datetime import datetime, timezone

import numpy as np

from .bounds import DEFAULT_DEPTH, build_ladder, sandwich_report
from .conditions import unit_existence
from .kernel import (
    ConricError,
    DEFAULT_TOLERANCES,
    Tolerances,
    cmatrix,
)
from .solver import (
    InternalInconsistency,
    MaxIterationsExceeded,
    NoSolutionEvidence,
    ProblemInstance,
    SingularCoefficient,
    SolveFailure,
    solve_maximal,
    solve_minimal,
)

SUCCESS = "success"
# exit code of each report classification; an input error writes no report
EXIT_CODES = {
    SUCCESS: 0,
    NoSolutionEvidence.classification: 2,
    MaxIterationsExceeded.classification: 3,
    InternalInconsistency.classification: 4,
}
EXIT_INPUT = 1


class InputError(Exception):
    pass


def _parse_text_matrix(text: str) -> dict:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InputError("empty matrix file")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise InputError(f"first line must be the dimension, got {lines[0]!r}") from exc
    if n < 1 or len(lines) != 1 + n:
        raise InputError(f"expected {n} rows of entries after the dimension line, got {len(lines) - 1}")
    re_rows, im_rows = [], []
    for row_text in lines[1 : 1 + n]:
        pairs = row_text.split()
        if len(pairs) != n:
            raise InputError(f"expected {n} entries per row, got {len(pairs)}")
        re_row, im_row = [], []
        for pair in pairs:
            parts = pair.split(",")
            if len(parts) != 2:
                raise InputError(f"entries must be 're,im' pairs, got {pair!r}")
            re_row.append(float(parts[0]))
            im_row.append(float(parts[1]))
        re_rows.append(re_row)
        im_rows.append(im_row)
    return {"n": n, "re": re_rows, "im": im_rows}


def _load_matrix_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: invalid JSON: {exc}") from exc
    else:
        doc = _parse_text_matrix(text)
    for key in ("n", "re", "im"):
        if key not in doc:
            raise InputError(f"{path}: missing field {key!r}")
    n = doc["n"]
    if type(n) is not int or n < 1:  # bool is a subclass of int
        raise InputError(f"{path}: field 'n' must be an integer of at least 1, got {json.dumps(n)}")
    return doc


def _matrix_from_fields(doc: dict, re_key: str, im_key: str, n: int) -> np.ndarray:
    parts = []
    for key in (re_key, im_key):
        try:
            parts.append(np.asarray(doc[key], dtype=float))
        except (TypeError, ValueError) as exc:
            raise InputError(f"field {key!r} must be an array of numbers: {exc}") from exc
    re_part, im_part = parts
    if re_part.shape != (n, n) or im_part.shape != (n, n):
        raise InputError(
            f"fields {re_key}/{im_key} must be {n}x{n} arrays, "
            f"got {re_part.shape} and {im_part.shape}"
        )
    return cmatrix(re_part + 1j * im_part)


def _load_instance(args, tol: Tolerances) -> ProblemInstance:
    doc = _load_matrix_file(args.input)
    n = doc["n"]
    a = _matrix_from_fields(doc, "re", "im", n)
    q = None
    if args.q is not None:
        q_doc = _load_matrix_file(args.q)
        if q_doc["n"] != n:
            raise InputError(f"q dimension {q_doc['n']} does not match a dimension {n}")
        q = _matrix_from_fields(q_doc, "re", "im", n)
    elif "q_re" in doc or "q_im" in doc:
        if "q_re" not in doc or "q_im" not in doc:
            raise InputError("q_re and q_im must both be present")
        q = _matrix_from_fields(doc, "q_re", "q_im", n)
    return ProblemInstance(a, q, tol)


def _build_tolerances(args) -> Tolerances:
    overrides = {"residual_tol": args.tol, "max_iter": args.max_iter}
    return dataclasses.replace(
        DEFAULT_TOLERANCES, **{k: v for k, v in overrides.items() if v is not None}
    )


def _mat_json(m: np.ndarray) -> dict:
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


def _existence_json(report) -> dict:
    return {
        "necessary": [c._asdict() for c in report.necessary],
        "sufficient_norm_half": report.sufficient_norm_half._asdict(),
        "exact_invertible": report.exact_invertible._asdict(),
        "verdict": report.verdict,
    }


_NUMBERS = {int, float}
_STRICT = json.JSONEncoder(allow_nan=False)


def _dumps(value) -> str:
    """json.dumps of a report value (a JSON leaf, or any list of a text report), inf and NaN as null."""
    try:
        return _STRICT.encode(value)
    except ValueError:
        return _STRICT.encode(json.loads(json.dumps(value), parse_constant=lambda _: None))


def _once_each(encode, items) -> list:
    """[encode(item) for item in items], calling encode once per distinct object."""
    codes = {}
    for item in items:
        if id(item) not in codes:
            codes[id(item)] = encode(item)
    return [codes[id(item)] for item in items]


def _recurs(items) -> bool:
    """Whether some dict or list occurs more than once among items, by identity."""
    ids = [id(item) for item in items if isinstance(item, (dict, list))]
    return len(set(ids)) < len(ids)


def _indented_json(value, end: str = "", level: int = 0) -> str:
    """json.dumps(value, indent=2) + end for a report (inf and NaN as null), joined once from its parts."""
    parts: list[str] = []
    _json_parts(value, level, parts)
    parts.append(end)
    return "".join(parts)


def _json_parts(value, level: int, parts: list[str]) -> None:
    """Append the text of value at nesting level to parts, so no level copies another's text.

    The standard library's indenting encoder is pure Python.  Here a list of
    numbers, or a list of non-empty number lists (a matrix from _mat_json, a
    trace of [k, change] rows), is encoded by one call to the C encoder and
    re-indented by string replacement, which is safe because the repr of an
    int or a float contains neither ", " nor "[".  Any other list in which a
    dict or list recurs by identity (the rungs of a converged ladder) encodes
    each distinct item once and appends that text wherever the item recurs;
    the memo lives only for that list.
    """
    if not isinstance(value, (dict, list, tuple)) or not value:
        parts.append(_dumps(value))
        return
    outer = "\n" + "  " * level
    inner = outer + "  "
    if isinstance(value, dict):
        separator = "{" + inner
        for key, item in value.items():
            parts.append(f"{separator}{json.dumps(key)}: ")
            _json_parts(item, level + 1, parts)
            separator = "," + inner
        parts.append(outer + "}")
    elif type(value) is list and set(map(type, value)) <= _NUMBERS:
        parts.append("[" + inner + _dumps(value)[1:-1].replace(", ", "," + inner) + outer + "]")
    elif all(type(row) is list and row for row in value) and set(
        map(type, itertools.chain.from_iterable(value))
    ) <= _NUMBERS:
        deep = inner + "  "
        body = _dumps(value)[2:-2].replace("], [", f"{inner}],{inner}[{deep}")
        body = body.replace(", ", "," + deep)
        parts.append(f"[{inner}[{deep}{body}{inner}]{outer}]")
    else:
        encode = functools.partial(_indented_json, level=level + 1)
        texts = _once_each(encode, value) if _recurs(value) else None
        separator = "[" + inner
        for index, item in enumerate(value):
            parts.append(separator)
            if texts is None:
                _json_parts(item, level + 1, parts)
            else:
                parts.append(texts[index])
            separator = "," + inner
        parts.append(outer + "]")


def _trace_rows(trace) -> list[list]:
    return [[k + 1, v] for k, v in enumerate(trace)]


def _write(text: str, args) -> bool:
    """Write to --out or stdout; False, after an error line, when --out cannot be written."""
    if args.out is None:
        sys.stdout.write(text)
        return True
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return False
    return True


def _emit(report: dict, args) -> bool:
    if args.format == "json":
        text = _indented_json(report, "\n")
    else:
        lines: list[str] = []

        def walk(prefix: str, value) -> None:
            if isinstance(value, dict):
                for key, item in value.items():
                    walk(f"{prefix}.{key}" if prefix else key, item)
            elif isinstance(value, list) and _recurs(value):
                # _dumps joins a list's items with ", ", so a recurring item is encoded once
                lines.append(f"{prefix} = [{', '.join(_once_each(_dumps, value))}]")
            else:
                lines.append(f"{prefix} = {_dumps(value)}")

        walk("", report)
        text = "\n".join(lines) + "\n"
    return _write(text, args)


def cmd_solve(args, report: dict) -> None:
    instance = args.instance
    existence = unit_existence(instance)
    report["existence"] = _existence_json(existence)
    if existence.verdict == "not_exists":
        failed = [c.name for c in existence.necessary_failures()] or [existence.exact_invertible.name]
        report["exit_classification"] = NoSolutionEvidence.classification
        report["failed_conditions"] = failed
        return

    outcome = solve_maximal(instance)
    payload = {
        "x_plus": _mat_json(outcome.solution),
        "residual": outcome.residual,
        "iterations": outcome.iterations,
        "rate_certificate": outcome.rate_certificate,
        "linear_rate_guaranteed": outcome.linear_rate_guaranteed,
    }
    if args.minimal:
        try:
            minimal = solve_minimal(instance)
            payload["x_minus"] = _mat_json(minimal.solution)
            payload["x_minus_residual"] = minimal.residual
        except SingularCoefficient as exc:
            payload["x_minus"] = None
            payload["x_minus_note"] = str(exc)
    report["outcome"] = payload
    report["trace"] = _trace_rows(outcome.trace)


def cmd_check(args, report: dict) -> None:
    report["existence"] = _existence_json(unit_existence(args.instance))


def _ladder_json(ladder) -> dict:
    return {
        "depth": ladder.depth,
        # a converged ladder repeats its rung arrays, and each is encoded once
        "matrices": _once_each(_mat_json, ladder.matrices),
        "monotone_gaps": ladder.monotone_gaps,
        "truncated_at": ladder.truncated_at,
    }


def cmd_bounds(args, report: dict) -> None:
    # a breakdown of either ladder proves that no solution exists: main classifies it, with no ladders
    lower, upper = (build_ladder(args.instance, side, args.depth) for side in ("lower", "upper"))
    report["ladders"] = {"lower": _ladder_json(lower), "upper": _ladder_json(upper)}
    # only a singular X- (so any singular A) leaves the sandwich out; a failed solve classifies the report
    try:
        sandwich = sandwich_report(args.instance, lower, upper)
        report["sandwich"] = {
            "lower_gap": sandwich.lower_gap,
            "upper_gap": sandwich.upper_gap,
            "lower_trend": sandwich.lower_trend,
            "consistent": sandwich.consistent,
        }
    except SingularCoefficient as exc:
        report["sandwich"] = None
        report["sandwich_note"] = str(exc)


def cmd_trace(args, report: dict) -> None:
    try:
        outcome = solve_maximal(args.instance)
    except SolveFailure as exc:
        report["trace"] = _trace_rows(exc.trace)
        raise
    report["trace"] = _trace_rows(outcome.trace)


# parse_args leaves a parser as it was, so every main call in a process shares one
@functools.cache
def _make_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("input", help="matrix file (JSON or plain text)")
    common.add_argument("--q", default=None, help="separate matrix file for Q")
    common.add_argument("--tol", type=float, default=None, help="residual tolerance, relative to max(1, ||Q||)")
    common.add_argument("--max-iter", type=int, default=None, dest="max_iter")
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument("--out", default=None, help="write the report here instead of stdout")
    common.add_argument("--no-meta", action="store_true", dest="no_meta")

    parser = argparse.ArgumentParser(
        prog="conric",
        description="Positive definite solutions of X + A* conj(X)^-1 A = Q",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_solve = sub.add_parser("solve", parents=[common], help="compute the maximal solution")
    p_solve.add_argument("--minimal", action="store_true", help="also compute the minimal solution")
    p_solve.set_defaults(func=cmd_solve)

    p_check = sub.add_parser("check", parents=[common], help="existence certification")
    p_check.set_defaults(func=cmd_check)

    p_bounds = sub.add_parser("bounds", parents=[common], help="solution bound ladders")
    p_bounds.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
    p_bounds.set_defaults(func=cmd_bounds)

    p_trace = sub.add_parser("trace", parents=[common], help="convergence trace as 'k value' lines")
    p_trace.set_defaults(func=cmd_trace)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _make_parser().parse_args(argv)
    except SystemExit as exc:  # a bad flag exits 2, no-solution-evidence's code; --help exits 0
        return EXIT_INPUT if exc.code else 0
    try:
        tol = _build_tolerances(args)
        # a command reads its instance from args, next to its options
        args.instance = _load_instance(args, tol)
    except (InputError, ValueError, ConricError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    report = {"command": " ".join(argv), "tolerances": dataclasses.asdict(tol)}
    if not args.no_meta:
        report["meta"] = {"generated_at": datetime.now(timezone.utc).isoformat()}
    try:
        args.func(args, report)
    except (ConricError, np.linalg.LinAlgError) as exc:
        # a failure after loading that names no classification is internal
        internal = InternalInconsistency.classification
        classification = report["exit_classification"] = getattr(exc, "classification", internal)
        report["error"] = str(exc)
        # trace writes no report; an internal error keeps its "error: " line as well
        if args.subcommand == "trace" or classification == internal:
            print(f"error: {exc}", file=sys.stderr)
    except ValueError as exc:  # an option error, such as --depth 0
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    classification = report.setdefault("exit_classification", SUCCESS)
    if args.subcommand == "trace":
        # trace writes 'k value' lines instead of the report
        written = _write("\n".join(f"{k} {v!r}" for k, v in report.get("trace", ())) + "\n", args)
    else:
        written = _emit(report, args)
    return EXIT_CODES[classification] if written else EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
