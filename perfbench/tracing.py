"""Span tracing around conric's public functions, from outside the package.

``Tracer.installed()`` replaces each traced function at every module
attribute that refers to it (``conric.solver.mat_inverse`` as well as
``conric.kernel.mat_inverse``), so calls are seen at the name their callers
look them up by.  Spans live in flat arrays in memory; per-layer metrics
are derived from them after the run.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
from array import array
from time import perf_counter

import numpy as np

from . import spec

TRACED = {
    "kernel": spec.KERNEL_FUNCTIONS,
    "embedding": spec.EMBEDDING_FUNCTIONS,
    "solver": spec.SOLVER_FUNCTIONS,
    "conditions": ("check_existence",),
    "bounds": ("build_ladder", "sandwich_report"),
    "cli": ("main",),
}
# Direct children subtracted from solve_maximal to leave the cross-check.
_NOT_CROSS_CHECK = {
    "solver.standard_solve_maximal",
    "solver.normalize_q",
    "solver.residual",
    "embedding.lozenge",
    "embedding.unheart",
}
_TOP_SOLVER = {"solver.solve_maximal", "solver.solve_minimal", "solver.standard_solve_maximal"}


def _report_path(argv) -> str | None:
    argv = list(argv)
    if "--out" in argv:
        return argv[argv.index("--out") + 1]
    return None


class Tracer:
    """Records (name, start, end, parent, operation id) for every traced call."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.op_id = -1
        self._stack: list[int] = []
        # span index -> return value summary or raised exception class
        self.returned: dict[int, object] = {}
        self.raised: dict[int, str] = {}

    def _wrap(self, qualname: str, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        keep = qualname in _TOP_SOLVER or qualname in (
            "conditions.check_existence",
            "bounds.build_ladder",
            "cli.main",
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_of.append(name_id)
            self.start.append(perf_counter())
            self.end.append(0.0)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self.op_id)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.end[idx] = perf_counter()
                self._stack.pop()
                self.raised[idx] = type(exc).__name__
                if qualname in _TOP_SOLVER:
                    self.returned[idx] = getattr(exc, "iterations", None)
                raise
            self.end[idx] = perf_counter()
            self._stack.pop()
            if keep:
                self.returned[idx] = self._summary(qualname, result, args, kwargs)
            return result

        return traced

    @staticmethod
    def _summary(qualname: str, result, args, kwargs):
        if qualname in _TOP_SOLVER:
            return result.iterations
        if qualname == "conditions.check_existence":
            return result.verdict
        if qualname == "bounds.build_ladder":
            return (len(result.matrices), sum(b.nbytes for b in result.ladder_blocks))
        # cli.main: size of the report it wrote
        path = _report_path(args[0] if args else kwargs.get("argv") or [])
        return os.path.getsize(path) if path and os.path.exists(path) else 0

    @contextlib.contextmanager
    def installed(self):
        """Patch every module attribute bound to a traced function; undo on exit."""
        import conric

        modules = [conric] + [sys.modules[f"conric.{m}"] for m in TRACED]
        originals = {}
        for module_name, functions in TRACED.items():
            module = sys.modules[f"conric.{module_name}"]
            for fn_name in functions:
                fn = getattr(module, fn_name)
                originals[id(fn)] = self._wrap(f"{module_name}.{fn_name}", fn)
        patched = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in originals and callable(value):
                    patched.append((module, attr, value))
                    setattr(module, attr, originals[id(value)])
        try:
            yield self
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    def save(self, path: str) -> None:
        """Write all spans once, as numpy arrays."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.array(self.name_of, dtype=np.int64),
            start=np.array(self.start),
            end=np.array(self.end),
            parent=np.array(self.parent, dtype=np.int64),
            op=np.array(self.op, dtype=np.int64),
        )

    def metrics(self, ops: int) -> dict[str, float]:
        """Per-layer metrics, normalised per traced operation."""
        name = np.array(self.name_of, dtype=np.int64)
        start = np.array(self.start)
        dur = np.array(self.end) - start
        parent = np.array(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child_time
        ids = {n: i for i, n in enumerate(self.names)}

        def mask(*qualnames: str) -> np.ndarray:
            wanted = [ids[q] for q in qualnames if q in ids]
            return np.isin(name, wanted)

        per_op = 1.0 / max(ops, 1)
        out: dict[str, float] = {}
        for f in spec.KERNEL_FUNCTIONS:
            m = mask(f"kernel.{f}")
            out[f"kernel.{f}.calls"] = m.sum() * per_op
            out[f"kernel.{f}.self_s"] = self_time[m].sum() * per_op
        m = mask(*(f"embedding.{f}" for f in spec.EMBEDDING_FUNCTIONS))
        out["embedding.calls"] = m.sum() * per_op
        out["embedding.self_s"] = self_time[m].sum() * per_op

        # a solver call nested in another solver call reports through it
        solver_ids = set(ids[q] for q in _TOP_SOLVER if q in ids)
        iterations = 0
        errors = dict.fromkeys(spec.SOLVER_ERRORS, 0)
        errors["other"] = 0
        for idx in np.flatnonzero(np.isin(name, list(solver_ids))):
            p = parent[idx]
            while p >= 0 and name[p] not in solver_ids:
                p = parent[p]
            if p >= 0:
                continue
            iterations += self.returned.get(int(idx)) or 0
            if int(idx) in self.raised:
                cls = self.raised[int(idx)]
                errors[cls if cls in errors else "other"] += 1
        out["solver.iterations"] = iterations * per_op
        for f in spec.SOLVER_FUNCTIONS:
            out[f"solver.{f}.s"] = dur[mask(f"solver.{f}")].sum() * per_op
        maximal = mask("solver.solve_maximal")
        removed = mask(*_NOT_CROSS_CHECK) & has_parent
        removed[removed] = maximal[parent[removed]]
        out["solver.cross_check_s"] = (dur[maximal].sum() - dur[removed].sum()) * per_op
        for cls, count in errors.items():
            out[f"solver.errors.{cls}"] = count * per_op

        m = mask("conditions.check_existence")
        calls = int(m.sum())
        verdicts = [self.returned.get(int(i)) for i in np.flatnonzero(m)]
        out["conditions.check_existence.calls"] = calls * per_op
        out["conditions.check_existence.s"] = dur[m].sum() * per_op
        out["conditions.check_existence.self_s"] = self_time[m].sum() * per_op
        decided = sum(v in ("exists", "not_exists") for v in verdicts)
        out["conditions.decided_frac"] = decided / calls if calls else 0.0

        m = mask("bounds.build_ladder")
        ladders = [self.returned[int(i)] for i in np.flatnonzero(m) if int(i) not in self.raised]
        out["bounds.build_ladder.calls"] = m.sum() * per_op
        out["bounds.build_ladder.s"] = dur[m].sum() * per_op
        out["bounds.build_ladder.self_s"] = self_time[m].sum() * per_op
        out["bounds.sandwich_report.s"] = dur[mask("bounds.sandwich_report")].sum() * per_op
        out["bounds.rungs"] = sum(r for r, _ in ladders) * per_op
        out["bounds.ladder_blocks_mb"] = max((b for _, b in ladders), default=0) / 1e6

        m = mask("cli.main")
        out["cli.main.calls"] = m.sum() * per_op
        out["cli.main.s"] = dur[m].sum() * per_op
        out["cli.self_s"] = self_time[m].sum() * per_op
        out["cli.report_bytes"] = sum(self.returned.get(int(i)) or 0 for i in np.flatnonzero(m)) * per_op
        return {k: float(v) for k, v in out.items()}
