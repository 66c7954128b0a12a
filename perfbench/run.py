"""Run one conric benchmark workload and print its metrics.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --compare OLD.jsonl NEW.jsonl
    python3 perfbench/run.py --write-spec

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, measured untraced; with ``--trace 1``
they are the per-layer ones from a traced replay of the same operations.
Timings are scaled to a nominal host speed (see ``hostspeed``); the wall-clock
figures are printed above the result line.
"""

from __future__ import annotations

import os

# BLAS must be pinned before numpy is first imported: one client thread on a
# small shared machine, and timings that do not depend on the thread pool.
PINNED_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = PINNED_THREADS

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT)]

from perfbench import spec  # noqa: E402  (stdlib only; numpy stays unimported)

WORK = ROOT / ".perfbench_work"
MIN_OPS = 100
SETUP_REPEATS = 5
SETUP_HOST_SAMPLES = 15


def _require_sources() -> None:
    if not (SRC / "conric" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no conric sources under {SRC}")


def _import_conric():
    """Import conric from this checkout's src/, and nowhere else."""
    _require_sources()
    import conric

    if Path(conric.__file__).resolve().parent != (SRC / "conric").resolve():
        raise SystemExit(f"perfbench: conric was imported from {conric.__file__}, not {SRC}")
    return conric


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    lines = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((SRC / "conric").glob("*.py"))
    )
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": cpus,
        "machine": platform.machine(),
        "seed": seed,
        "src_conric_lines": lines,
    }


def setup_probe(workload: str, seed: int) -> None:
    """Print the set-up time of a fresh process (import conric plus warm-up)
    and the median reference-loop time measured right after it."""
    start = perf_counter()
    _import_conric()
    import conric.cli  # noqa: F401

    imported = perf_counter() - start
    from perfbench.workloads import WORKLOADS

    workdir = WORK / f"probe-{os.getpid()}"
    try:
        wl = WORKLOADS[workload](seed, workdir)
        ops = wl.warmup()
        start = perf_counter()
        for op in ops:
            wl.execute(op)
        setup = imported + perf_counter() - start
        from perfbench.hostspeed import HostSpeed

        host = HostSpeed()
        for _ in range(SETUP_HOST_SAMPLES):
            host.sample()
        print(repr(setup), repr(statistics.median(host.samples)))
    finally:
        _remove_workdir(workdir)


def _remove_workdir(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:  # another run still uses it
        pass


def measure_setup(workload: str, seed: int, repeats: int) -> tuple[float, float]:
    """Median set-up time over ``repeats`` fresh processes: scaled, and wall clock."""
    from perfbench.hostspeed import NOMINAL_S

    scaled, wall = [], []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload, "--seed", str(seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        setup, ref = map(float, proc.stdout.strip().splitlines()[-1].split())
        wall.append(setup)
        scaled.append(setup * NOMINAL_S / ref)
    return statistics.median(scaled), statistics.median(wall)


def run_rounds(wl, rounds, seconds: float, min_ops: int, host, on_op=None):
    """Closed loop over whole passes through the pool of ``rounds``.

    Stops at the pass boundary nearest to ``seconds`` once ``min_ops`` are
    done, so every run measures the same mix of operations whatever the
    host's speed.  Returns the results, the busy time (the elapsed time less
    the reference-loop samples) and, for each result, the number of
    reference samples taken before it started.
    """
    from perfbench.workloads import Result

    results = []
    positions = []
    start = perf_counter()
    reference = 0.0
    passes = 0
    while True:
        for op in (op for ops in rounds for op in ops):
            if on_op is not None:
                on_op(len(results))
            positions.append(len(host.samples))
            t0 = perf_counter()
            try:
                value, error = wl.execute(op), None
            except Exception as exc:  # recorded and counted as a failed operation
                # a solver exception carries up to max_iter trace floats, and
                # its traceback keeps the solver's frames alive; retaining
                # either would show up in peak_rss_mb
                value, error = None, exc.with_traceback(None)
                if getattr(exc, "trace", None):
                    exc.trace = []
            results.append(Result(op, perf_counter() - t0, value, error))
            reference += host.maybe_sample()
        passes += 1
        elapsed = perf_counter() - start
        if len(results) >= min_ops and elapsed * (1.0 + 0.5 / passes) >= seconds:
            return results, elapsed - reference, positions


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    tiny: bool = False,
    setup_repeats: int = SETUP_REPEATS,
    min_ops: int = MIN_OPS,
    spans: str | None = None,
) -> tuple[dict, list, dict]:
    """One benchmark run; returns the result object, the per-op checks and
    the end-to-end timings as measured by the wall clock."""
    _require_sources()
    setup_s, setup_wall = (None, None) if trace else measure_setup(workload, seed, setup_repeats)
    _import_conric()
    from perfbench.hostspeed import HostSpeed
    from perfbench.tracing import Tracer
    from perfbench.workloads import WORKLOADS

    import numpy as np

    workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
    try:
        wl = WORKLOADS[workload](seed, workdir, tiny=tiny)
        rounds = wl.rounds()
        for op in wl.warmup():
            wl.execute(op)
        host = HostSpeed()
        host.sample()
        wall: dict = {}
        if not trace:
            results, busy, positions = run_rounds(wl, rounds, seconds, min_ops, host)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            checks = wl.check(results)
            latency_ms = np.array([r.seconds for r in results]) * 1e3
            scaled_ms = latency_ms * host.local_factors(positions)
            digits = [c.digits for c in checks if c.digits is not None]
            wall = {
                "instances_per_s": len(results) / busy,
                "latency_ms_p50": float(np.percentile(latency_ms, 50)),
                "latency_ms_p90": float(np.percentile(latency_ms, 90)),
                "setup_s": setup_wall,
                "host_factor": host.factor(),
            }
            metrics = {
                # closed loop: the busy window at nominal speed is the sum of
                # the scaled operation times
                "instances_per_s": len(results) / (scaled_ms.sum() / 1e3),
                "latency_ms_p50": float(np.percentile(scaled_ms, 50)),
                "latency_ms_p90": float(np.percentile(scaled_ms, 90)),
                "accuracy_digits_p50": statistics.median(digits) if digits else 0.0,
                "setup_s": setup_s,
                "peak_rss_mb": peak_rss_mb,
            }
        else:
            untraced, elapsed_u, _ = run_rounds(wl, rounds, seconds / 2.0, 1, host)
            tracer = Tracer()

            def on_op(k):
                tracer.op_id = k

            with tracer.installed():
                # exactly the untraced operations, in the same order
                traced, elapsed_t, _ = run_rounds(wl, [[r.op for r in untraced]], 0.0, 0, host, on_op)
            results = untraced + traced
            checks = wl.check(untraced) + wl.check(traced)
            metrics = tracer.metrics(len(traced))
            ips_u, ips_t = len(untraced) / elapsed_u, len(traced) / elapsed_t
            metrics.update(
                {
                    "trace.ops": float(len(traced)),
                    "trace.untraced_instances_per_s": ips_u,
                    "trace.traced_instances_per_s": ips_t,
                    "trace.overhead_frac": 1.0 - ips_t / ips_u,
                }
            )
            f = host.factor()
            for name, unit in spec.PER_LAYER:
                if unit == "s/op":
                    metrics[name] *= f
                elif unit == "1/s":
                    metrics[name] /= f
            if spans:
                tracer.save(spans)
    finally:
        _remove_workdir(workdir)
    units = spec.units()
    # Every operation of the pool runs at least once and conric is
    # deterministic, so counting distinct operations makes attempted and
    # failed depend on the seed alone, not on how many rounds fit the window.
    attempted = {id(r.op) for r in results}
    failed = {id(r.op): c for r, c in zip(results, checks) if c.cause is not None}
    result = {
        "correct": all(c.known for c in failed.values()),
        "attempted": len(attempted),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, checks, wall


def _medians(path: str) -> dict:
    """workload -> metric -> median value over the records of a --out file."""
    values: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                for name, m in rec["result"]["metrics"].items():
                    values.setdefault(rec["workload"], {}).setdefault(name, []).append(m["value"])
    return {w: {k: statistics.median(v) for k, v in ms.items()} for w, ms in values.items()}


def compare(old_path: str, new_path: str) -> list[str]:
    """Per workload and metric: old median, new median and new/old."""
    old, new = _medians(old_path), _medians(new_path)
    units = spec.units()
    lines = [f"{'workload':<14} {'metric':<40} {'old':>12} {'new':>12} {'new/old':>9}  unit"]
    for workload in sorted(set(old) & set(new)):
        for name in sorted(set(old[workload]) & set(new[workload])):
            a, b = old[workload][name], new[workload][name]
            ratio = f"{b / a:9.3f}" if a else f"{'n/a':>9}"
            lines.append(f"{workload:<14} {name:<40} {a:12.6g} {b:12.6g} {ratio}  {units.get(name, '')}")
    lines.append("ratio base: the old median; values are medians over each file's runs")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append this run's record (result and environment) as a JSON line")
    parser.add_argument("--spans", help="traced run: write every span to this .npz file")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="compare two --out files")
    parser.add_argument("--write-spec", action="store_true", help="rewrite BENCHMARK.json")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.write_spec:
        spec.write()
        return 0
    if args.compare:
        print("\n".join(compare(*args.compare)))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    result, checks, wall = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), spans=args.spans)
    env = environment(args.seed)
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    for name, value in wall.items():
        print(f"  wall clock: {name} = {value!r}")
    print(f"  failed_frac = {result['failed'] / result['attempted']!r} ({result['failed']}/{result['attempted']} distinct operations)")
    causes: dict[str, list] = {}
    for c in checks:
        if c.cause is not None:
            causes.setdefault(c.cause, []).append(c.detail)
    from perfbench.workloads import KNOWN_DEFECTS

    for cause, details in sorted(causes.items()):
        note = f" (known defect: {KNOWN_DEFECTS[cause]})" if cause in KNOWN_DEFECTS else ""
        print(f"  failure {cause}: {len(details)} executions{note}; first: {details[0]}")
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env, "result": result}
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
