"""Print one digest per benchmark workload of everything conric computes on its pool.

    python scripts/pool_digest.py SEED [SEED ...] [--tiny]

For each seed, the script builds the pool of each workload in
perfbench/workloads.py (solve, near-critical, certify, cli-batch), runs every
operation once, in pool order, and prints ``SEED WORKLOAD OPERATIONS DIGEST``.
A digest covers each operation's result bitwise: solutions, iterations,
residuals, certificates and traces; verdicts and margins; the class and
message of an error; and for cli-batch the exit code, standard error and
report bytes, with the work directory written as ``<work>``.  Two checkouts
whose digests agree compute the same pool outputs to the last bit.  ``--tiny``
takes perfbench's one-round, one-size pools.  BLAS is pinned to one thread,
as the benchmark pins it, so the bits do not depend on the thread pool.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import hashlib
import sys
import tempfile
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from perfbench.workloads import WORKLOADS  # noqa: E402


def _feed(digest, value) -> None:
    """Hash value by type and content: arrays by their bytes, floats by their hex form."""
    if isinstance(value, np.ndarray):
        digest.update(f"ndarray {value.dtype} {value.shape}:".encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, array):
        digest.update(f"array {value.typecode} {len(value)}:".encode())
        digest.update(value.tobytes())
    elif isinstance(value, float):
        digest.update(f"float {value.hex()};".encode())
    elif isinstance(value, BaseException):
        digest.update(f"error {type(value).__name__}: {value};".encode())
        # a solve failure carries how far it got
        for name in ("iterations", "trace"):
            if hasattr(value, name):
                _feed(digest, getattr(value, name))
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        digest.update(f"{type(value).__name__}(".encode())
        for item in dataclasses.fields(value):
            digest.update(f"{item.name}=".encode())
            _feed(digest, getattr(value, item.name))
        digest.update(b")")
    elif isinstance(value, (list, tuple)):
        digest.update(f"{type(value).__name__} {len(value)}[".encode())
        for item in value:
            _feed(digest, item)
        digest.update(b"]")
    else:
        digest.update(f"{type(value).__name__} {value!r};".encode())


def pool_digest(name: str, seed: int, tiny: bool) -> tuple[int, str]:
    """(operations, hex digest) of one pass through the pool of workload ``name``."""
    digest = hashlib.sha256()
    count = 0
    with tempfile.TemporaryDirectory(prefix="pool-digest-") as work:
        workload = WORKLOADS[name](seed, Path(work), tiny=tiny)
        for op in (op for round_ in workload.rounds() for op in round_):
            digest.update(f"op {op.name} {op.inst.key};".encode())
            try:
                result = workload.execute(op)
            except Exception as exc:  # the error is the operation's output
                result = exc
            if op.out is not None and not isinstance(result, BaseException):
                # a cli-batch command: (exit code, standard error) and its report, if it wrote one
                code, stderr = result
                report = op.out.read_text(encoding="utf-8") if op.out.exists() else None
                result = code, *(text and text.replace(work, "<work>") for text in (stderr, report))
            _feed(digest, result)
            count += 1
    return count, digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("seeds", nargs="+", type=int, metavar="SEED")
    parser.add_argument("--tiny", action="store_true", help="one round at the first size of each pool")
    args = parser.parse_args(argv)
    for seed in args.seeds:
        for name in WORKLOADS:
            count, hexdigest = pool_digest(name, seed, args.tiny)
            print(f"{seed} {name} {count} {hexdigest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
