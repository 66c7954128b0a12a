"""The four workloads: seeded inputs, one conric call per operation, checks.

Inputs come in rounds.  A round holds one instance per problem size; the
instance kind rotates with the round index and each continuous parameter
follows a stratified sequence, so the pool of rounds has the same mix
whatever the seed.  The runner makes whole passes through the pool, which
keeps throughput and percentiles comparable across seeds and hosts.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import conric
import conric.cli

from . import oracles
from .oracles import OracleFailure

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# rng key of the warm-up instances, kept apart from every pool round
WARMUP_ROUND = 1_000_003

# A failure whose cause is a documented defect of conric still counts as a
# failed operation; it is named here so that it is not mistaken for a new
# regression.  cause -> description
KNOWN_DEFECTS = {
    "bounds-ignores-q": "`conric bounds` builds both ladders and the sandwich from A "
    "alone and ignores Q, so R_K >= X_+ or S_K <= X_- fails for Q != I",
    "minimal-dual-route": "solve_minimal maps the dual maximal solution back as "
    "I - conj(Y_+), which cancels when X_- is small and ill-conditioned; the residual "
    "then misses 1e-9 and InternalInconsistency is raised (`conric solve --minimal` "
    "exits 1, and the same file's trace and bounds reports cannot be checked)",
}
DUAL_ROUTE_MESSAGE = "dual-route residual"


@dataclass
class Instance:
    key: str
    n: int
    a: np.ndarray
    q: np.ndarray | None = None
    kind: str = ""
    accepted: tuple[str, ...] = ()  # verdicts accepted by the certify oracle
    omega: float | None = None  # reference omega(lozenge A)
    files: dict = field(default_factory=dict)  # cli inputs and output format

    @property
    def q_or_eye(self) -> np.ndarray:
        return np.eye(self.n, dtype=np.complex128) if self.q is None else self.q


@dataclass
class Op:
    name: str
    inst: Instance
    argv: list[str] | None = None
    out: Path | None = None


@dataclass
class Result:
    op: Op
    seconds: float
    value: object = None
    error: BaseException | None = None


@dataclass
class Check:
    """Outcome of checking one result: a failure cause or None, and digits."""

    cause: str | None = None
    detail: str = ""
    digits: float | None = None

    @property
    def known(self) -> bool:
        return self.cause in KNOWN_DEFECTS


def _rng(seed: int, r: int, j: int) -> np.random.Generator:
    return np.random.default_rng([seed, r, j])


def _gaussian(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _with_norm(a: np.ndarray, norm: float) -> np.ndarray:
    return a * (norm / np.linalg.norm(a, 2))


def _hpd(rng: np.random.Generator, n: int) -> np.ndarray:
    """Hermitian positive definite Q with eigenvalues in [1, 3], exactly Hermitian."""
    u, _ = np.linalg.qr(_gaussian(rng, n))
    q = (u * rng.uniform(1.0, 3.0, n)) @ u.conj().T
    return (q + q.conj().T) / 2.0


def _van_der_corput(k: int) -> float:
    """k-th point of the base-2 van der Corput sequence; every prefix is evenly spread."""
    x, f = 0.0, 0.5
    while k:
        x += f * (k & 1)
        k >>= 1
        f /= 2.0
    return x


def _with_omega(rng: np.random.Generator, n: int, omega: float) -> np.ndarray:
    """Random A scaled so that omega(lozenge A) = omega (omega is homogeneous)."""
    a0 = _gaussian(rng, n)
    return a0 * (omega / oracles.omega_lozenge(a0))


class Workload:
    """Base: subclasses make rounds of operations, execute and check them."""

    name = ""
    sizes: tuple[int, ...] = ()
    pool_rounds = 1
    period = 1  # rounds after which the instance kinds repeat

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.tiny = tiny

    def rounds(self) -> list[list[Op]]:
        sizes = self.sizes[:1] if self.tiny else self.sizes
        count = 1 if self.tiny else self.pool_rounds
        return [
            [op for j, n in enumerate(sizes) for op in self.ops(self.instance(r, j, n))]
            for r in range(count)
        ]

    def _spread(self, r: int, j: int, lo: float, hi: float) -> float:
        """Parameter of slot j in round r, stratified over the rounds.

        Each (slot, kind) pair walks its own rotation of the van der Corput
        sequence, so any whole number of rounds samples [lo, hi) evenly.
        The points do not depend on the seed: the cost of an instance is
        steep in these parameters (near ||A|| = 1/2 for con-normal A, near
        eps = 0 at the boundary), and the seed varies the matrices instead.
        """
        shift = ((j * self.period + r % self.period) * GOLDEN) % 1.0
        return lo + (hi - lo) * ((_van_der_corput(r // self.period) + shift) % 1.0)

    def warmup(self) -> list[Op]:
        return self.ops(self.warmup_instance())

    def instance(self, r: int, j: int, n: int) -> Instance:
        raise NotImplementedError

    def warmup_instance(self) -> Instance:
        raise NotImplementedError

    def ops(self, inst: Instance) -> list[Op]:
        raise NotImplementedError

    def execute(self, op: Op):
        raise NotImplementedError

    def check(self, results: list[Result]) -> list[Check]:
        raise NotImplementedError


def _solve(name: str, inst: Instance):
    problem = conric.ProblemInstance(inst.a, inst.q)
    return getattr(conric, name)(problem)


def _raised(res: Result) -> Check:
    error = res.error
    cause = "raised"
    if (
        res.op.name == "solve_minimal"
        and isinstance(error, conric.InternalInconsistency)
        and str(error).startswith(DUAL_ROUTE_MESSAGE)
    ):
        cause = "minimal-dual-route"
    return Check(cause, f"{type(error).__name__}: {error}")


class SolveWorkload(Workload):
    name = "solve"
    # n = 16 twice, so that the median operation falls inside a size class
    sizes = (4, 8, 16, 16, 32)
    pool_rounds = 32
    period = 4
    KINDS = ("plain", "q", "con_normal", "q")

    def instance(self, r, j, n):
        rng = _rng(self.seed, r, j)
        kind = self.KINDS[(r + j) % 4]
        norm = self._spread(r, j, 0.05, 0.49)
        base = _gaussian(rng, n)
        if kind == "con_normal":
            base = base + base.T  # complex symmetric, hence con-normal
        a = _with_norm(base, norm)
        q = _hpd(rng, n) if kind == "q" else None
        return Instance(f"r{r}s{j}", n, a, q, kind)

    def warmup_instance(self):
        rng = _rng(self.seed, WARMUP_ROUND, 0)
        return Instance("warmup", 4, _with_norm(_gaussian(rng, 4), 0.3))

    def ops(self, inst):
        return [Op("solve_maximal", inst), Op("solve_minimal", inst)]

    def execute(self, op):
        return _solve(op.name, op.inst)

    def check(self, results):
        checks = []
        solutions: dict[tuple[str, str], np.ndarray] = {}
        for res in results:
            inst = res.op.inst
            if res.error is not None:
                checks.append(_raised(res))
                continue
            try:
                x = res.value.solution
                d = oracles.check_solution(x, inst.a, inst.q_or_eye)
                want = "maximal" if res.op.name == "solve_maximal" else "minimal"
                if inst.kind == "con_normal":
                    oracles.check_closed_form(x, inst.a, want)
                solutions[(inst.key, want)] = x
                other = solutions.get((inst.key, "maximal" if want == "minimal" else "minimal"))
                if other is not None:
                    pair = (x, other) if want == "minimal" else (other, x)
                    oracles.check_order(*pair, "X_- <= X_+")
            except OracleFailure as exc:
                checks.append(Check("oracle", str(exc)))
                continue
            checks.append(Check(digits=d))
        return checks


class NearCriticalWorkload(Workload):
    name = "near-critical"
    sizes = (1, 2, 3, 4, 8)
    pool_rounds = 24  # 120 operations: one pass holds the 100 a run needs
    period = 4
    BOUNDARY = (0.5, 0.5j, -0.5, -0.5j)  # |a| = 1/2 exactly in floating point

    @staticmethod
    def _critical(rng, n, eps):
        """Complex-symmetric A with omega(lozenge A) = ||A|| = 1/2 - eps.

        lozenge(A) is real symmetric for complex-symmetric A, so its numerical
        radius is its norm, and the iteration count is set by eps alone
        (about 5.7 / sqrt(eps)); for generic A it varies 2-3x at fixed eps.
        """
        base = _gaussian(rng, n)
        return _with_norm(base + base.T, 0.5 - eps)

    def instance(self, r, j, n):
        rng = _rng(self.seed, r, j)
        if n == 1 and r % 4 == 0:
            a = np.array([[self.BOUNDARY[int(rng.integers(4))]]], dtype=np.complex128)
            return Instance(f"r{r}s{j}", n, a, kind="boundary")
        eps = 10.0 ** self._spread(r, j, -4.0, -2.0)
        return Instance(f"r{r}s{j}", n, self._critical(rng, n, eps), kind="critical")

    def warmup_instance(self):
        rng = _rng(self.seed, WARMUP_ROUND, 0)
        return Instance("warmup", 2, self._critical(rng, 2, 1e-2), kind="critical")

    def ops(self, inst):
        return [Op("solve_maximal", inst)]

    def execute(self, op):
        return _solve(op.name, op.inst)

    def check(self, results):
        checks = []
        for res in results:
            inst = res.op.inst
            if res.error is not None:
                if inst.kind == "boundary" and isinstance(res.error, conric.MaxIterationsExceeded):
                    checks.append(Check())
                else:
                    checks.append(_raised(res))
                continue
            try:
                checks.append(Check(digits=oracles.check_solution(res.value.solution, inst.a, inst.q_or_eye)))
            except OracleFailure as exc:
                checks.append(Check("oracle", str(exc)))
        return checks


class CertifyWorkload(Workload):
    name = "certify"
    sizes = (4, 8, 16)
    pool_rounds = 36
    period = 6
    CATEGORIES = ("exists", "not_exists", "band_below", "band_above", "singular", "big_norm")

    def instance(self, r, j, n):
        rng = _rng(self.seed, r, j)
        cat = self.CATEGORIES[(r + j) % 6]
        key = f"r{r}s{j}"
        if cat in ("exists", "not_exists", "band_below", "band_above"):
            lo, hi = (-3.0, -1.0) if cat in ("exists", "not_exists") else (-6.0, -4.0)
            delta = 10.0 ** self._spread(r, j, lo, hi)
            below = cat in ("exists", "band_below")
            omega = 0.5 - delta if below else 0.5 + delta
            a = _with_omega(rng, n, omega)
            side = "exists" if below else "not_exists"
            accepted = (side,) if cat in ("exists", "not_exists") else ("undetermined", side)
            return Instance(key, n, a, kind=cat, accepted=accepted, omega=omega)
        if cat == "singular":
            left = rng.standard_normal((n, n - 1)) + 1j * rng.standard_normal((n, n - 1))
            right = rng.standard_normal((n - 1, n)) + 1j * rng.standard_normal((n - 1, n))
            a = _with_norm(left @ right, self._spread(r, j, 0.1, 0.45))
            return Instance(key, n, a, kind=cat, accepted=("exists",))
        a = _with_norm(_gaussian(rng, n), self._spread(r, j, 1.05, 2.0))
        return Instance(key, n, a, kind=cat, accepted=("not_exists",), omega=oracles.omega_lozenge(a))

    def warmup_instance(self):
        rng = _rng(self.seed, WARMUP_ROUND, 0)
        a = _with_omega(rng, 4, 0.45)
        return Instance("warmup", 4, a, kind="exists", accepted=("exists",), omega=0.45)

    def ops(self, inst):
        return [Op("check_existence", inst)]

    def execute(self, op):
        return conric.check_existence(op.inst.a)

    def check(self, results):
        checks = []
        for res in results:
            inst = res.op.inst
            if res.error is not None:
                checks.append(_raised(res))
                continue
            try:
                oracles.check_verdict(res.value.verdict, inst.accepted)
            except OracleFailure as exc:
                checks.append(Check("oracle", f"{inst.kind}: {exc}"))
                continue
            exact = res.value.exact_invertible
            d = None
            if exact is not None and inst.omega is not None:
                d = oracles.digits(abs((0.5 - exact.margin) - inst.omega) / inst.omega)
            checks.append(Check(digits=d))
        return checks


def _write_matrix(path: Path, m: np.ndarray, fmt: str) -> None:
    n = m.shape[0]
    if fmt == "json":
        doc = {"n": n, "re": m.real.tolist(), "im": m.imag.tolist()}
        path.write_text(json.dumps(doc), encoding="utf-8")
    else:
        rows = [" ".join(f"{float(z.real)!r},{float(z.imag)!r}" for z in row) for row in m]
        path.write_text("\n".join([str(n), *rows]) + "\n", encoding="utf-8")


def parse_text_report(text: str) -> dict:
    """Rebuild the nested report from the CLI's 'dotted.key = value' text form."""
    doc: dict = {}
    for line in text.splitlines():
        key, _, raw = line.partition(" = ")
        try:
            value = json.loads(raw)
        except ValueError:
            value = {"True": True, "False": False, "None": None}.get(raw, raw.strip("'\""))
        node = doc
        *parents, leaf = key.split(".")
        for p in parents:
            node = node.setdefault(p, {})
        node[leaf] = value
    return doc


def _matrix(doc: dict) -> np.ndarray:
    return np.asarray(doc["re"], dtype=float) + 1j * np.asarray(doc["im"], dtype=float)


class CliBatchWorkload(Workload):
    name = "cli-batch"
    sizes = (2, 4, 8)
    pool_rounds = 8
    period = 4
    COMMANDS = (
        ("solve", "--minimal"),
        ("check",),
        ("trace",),
        ("bounds", "--depth", "6"),
    )
    # The deep ladder runs on the n >= 4 files, one operation in 7: p90 then
    # falls inside the cluster of n = 4 deep ladders, which the bounds layer
    # sets, rather than on the few slowest ordinary commands, an extreme
    # value that moved by 0.12 of the median between seeds.
    DEEP = ("bounds", "--depth", "48")
    DEEP_MIN_N = 4

    def _files(self, key, a, q, in_fmt, out_fmt) -> dict:
        self.workdir.mkdir(parents=True, exist_ok=True)
        ext = "json" if in_fmt == "json" else "txt"
        files = {"a": self.workdir / f"{key}-a.{ext}", "out_fmt": out_fmt}
        _write_matrix(files["a"], a, in_fmt)
        if q is not None:
            files["q"] = self.workdir / f"{key}-q.{ext}"
            _write_matrix(files["q"], q, in_fmt)
        return files

    def instance(self, r, j, n):
        rng = _rng(self.seed, r, j)
        key = f"r{r}s{j}"
        a = _with_norm(_gaussian(rng, n), self._spread(r, j, 0.1, 0.45))
        q = _hpd(rng, n) if (r + j) % 2 == 1 else None
        in_fmt = "text" if (r // 2 + j) % 2 else "json"
        out_fmt = "text" if (r + 2 * j) % 4 == 3 else "json"
        return Instance(key, n, a, q, files=self._files(key, a, q, in_fmt, out_fmt))

    def warmup_instance(self):
        rng = _rng(self.seed, WARMUP_ROUND, 0)
        a = _with_norm(_gaussian(rng, 2), 0.3)
        return Instance("warmup", 2, a, files=self._files("warmup", a, None, "json", "json"))

    def warmup(self):
        return self.ops(self.warmup_instance(), deep=True)

    def ops(self, inst, deep=None):
        ops = []
        if deep is None:
            deep = inst.n >= self.DEEP_MIN_N
        for command in self.COMMANDS + ((self.DEEP,) if deep else ()):
            label = "-".join(command).replace("--", "")
            out = self.workdir / f"{inst.key}-{label}.out"
            argv = [*command, str(inst.files["a"]), "--no-meta", "--out", str(out)]
            if "q" in inst.files:
                argv += ["--q", str(inst.files["q"])]
            if inst.files["out_fmt"] == "text":
                argv += ["--format", "text"]
            ops.append(Op(" ".join(command), inst, argv, out))
        return ops

    def execute(self, op):
        """Exit code and standard error of one in-process ``conric`` call."""
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = conric.cli.main(op.argv)
        return code, err.getvalue()

    def _report(self, op: Op) -> dict:
        text = op.out.read_text(encoding="utf-8")
        if op.inst.files["out_fmt"] == "text":
            return parse_text_report(text)
        return json.loads(text)

    def check(self, results):
        checks = []
        solved: dict[str, dict] = {}
        unchecked: dict[str, str] = {}
        for res in results:
            op, inst = res.op, res.op.inst
            if res.error is not None:
                checks.append(_raised(res))
                continue
            code, stderr = res.value
            if code != 0:
                dual_route = op.argv[0] == "solve" and stderr.startswith(f"error: {DUAL_ROUTE_MESSAGE}")
                cause = "minimal-dual-route" if dual_route else "exit-code"
                checks.append(Check(cause, f"{op.name}: exit code {code}: {stderr.strip()}"))
                if dual_route:
                    unchecked[inst.key] = cause
                continue
            if op.argv[0] in ("trace", "bounds") and inst.key in unchecked:
                # no solve report to check against: fails with the solve's cause
                checks.append(Check(unchecked[inst.key], f"{op.name}: unchecked, solve --minimal failed"))
                continue
            try:
                checks.append(self._check_report(op, inst, solved))
            except OracleFailure as exc:
                checks.append(self._classify(op, inst, exc))
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                checks.append(Check("bad-report", f"{op.name}: {type(exc).__name__}: {exc}"))
        return checks

    def _check_report(self, op: Op, inst: Instance, solved: dict) -> Check:
        command = op.argv[0]
        if command == "trace":
            lines = op.out.read_text(encoding="utf-8").split()
            ks, values = [int(k) for k in lines[0::2]], [float(v) for v in lines[1::2]]
            if ks != list(range(1, len(ks) + 1)) or not all(0.0 <= v < math.inf for v in values):
                raise OracleFailure("trace lines are not 'k value' with k = 1, 2, ...")
            expected = solved[inst.key]["outcome"]["iterations"]
            if len(ks) != expected:
                raise OracleFailure(f"trace has {len(ks)} steps, solve reported {expected}")
            return Check()
        report = self._report(op)
        if command == "check":
            oracles.check_verdict(report["existence"]["verdict"], ("exists",))
            return Check()
        if command == "solve":
            outcome = report["outcome"]
            x_plus, x_minus = _matrix(outcome["x_plus"]), _matrix(outcome["x_minus"])
            d = min(
                oracles.check_solution(x_plus, inst.a, inst.q_or_eye),
                oracles.check_solution(x_minus, inst.a, inst.q_or_eye),
            )
            oracles.check_order(x_minus, x_plus, "X_- <= X_+")
            solved[inst.key] = report
            return Check(digits=d)
        ladders = report["ladders"]
        outcome = solved[inst.key]["outcome"]
        oracles.check_sandwich(
            _matrix(ladders["lower"]["matrices"][-1]),
            _matrix(ladders["upper"]["matrices"][-1]),
            _matrix(outcome["x_minus"]),
            _matrix(outcome["x_plus"]),
        )
        return Check()

    def _classify(self, op: Op, inst: Instance, exc: OracleFailure) -> Check:
        """Attribute a bounds failure to Q being ignored when the report shows it.

        The first upper rung of the unit-Q ladder is I - A* A; a report that
        carries exactly that rung while Q != I was built without Q.
        """
        upper = self._report(op).get("ladders", {}).get("upper") if op.argv[0] == "bounds" else None
        if upper and inst.q is not None:
            r_1 = _matrix(upper["matrices"][0])
            unit_q = np.eye(inst.n) - inst.a.conj().T @ inst.a
            if np.linalg.norm(r_1 - unit_q, 2) <= 1e-12:
                return Check("bounds-ignores-q", f"{op.name}: {exc}")
        return Check("oracle", f"{op.name}: {exc}")


WORKLOADS = {
    w.name: w for w in (SolveWorkload, NearCriticalWorkload, CertifyWorkload, CliBatchWorkload)
}
