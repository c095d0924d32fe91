"""The benchmark's workloads: seeded inputs, one pass of ops, output checks.

A pass runs every op of a workload once, in a fixed order; a run repeats
passes until its time is up.  Inputs are a pure function of the workload
name and the seed (``inputs``), so every pass of a run, and every run with
the same seed, sees the same inputs.  Ops reach the program only through
attribute lookups on the tsvar modules at call time, so the wrappers that
``tracing.Instrument`` installs see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
from pathlib import Path

from tracing import Op, OpLog

# Tolerance passed to `tsvar verify` on the control workloads.  The solver stops
# on a graininess-scaled gradient below 1e-9, which lets the unscaled residuals
# the report shows reach 1e-9/mu = 3.2e-6 at n = 3200; residuals above the
# requested 1e-9 are counted by solver.converged_above_tol, not failed here.
VERIFY_TOL = 1e-5
SLOPE_TOL = 1e-4  # var_mesh: slope and linearity against the bisection root

LADDER = (60, 120, 180)  # var_mesh mesh sizes
CTL_SIZES = (800, 1600, 3200)  # ctl_mesh mesh sizes, one op each
QGRID_VALUES = 16  # ctl_qgrid sweep values per pass
SWEEP_VALUES = 200  # sweep_small sweep values per pass


def stratified(r: random.Random, lo: float, hi: float, k: int) -> list[float]:
    """One uniform draw in each of ``k`` equal strata of ``[lo, hi]``, ascending.

    A sweep walks its values in order, as a parameter study would, and every
    seed covers the range evenly, so seeds differ in the values, not in how
    much work the sweep is.
    """
    width = (hi - lo) / k
    return [lo + (i + r.random()) * width for i in range(k)]


def inputs(workload: str, seed: int) -> dict:
    """Everything a workload's ops depend on, drawn from ``seed`` alone."""
    r = random.Random(f"{workload}:{seed}")
    # The ranges below keep the solvers' iteration counts the same for every
    # seed (stationarity takes 4/5/5 Newton steps on the ladder for beta >= 2.25
    # and 6 at n = 180 below it; the control solves take 8 BFGS steps within 10%
    # of u^2 + x^2 + 3(z-1)^2, u - 0.5x), so seeds change values, not work.
    if workload == "var_mesh":
        return {"beta": r.uniform(2.5, 5.0), "ladder": list(LADDER)}
    if workload == "ctl_mesh":
        return {"ops": [
            {"n": n, "wu": r.uniform(0.9, 1.1), "wx": r.uniform(0.9, 1.1),
             "wz": r.uniform(2.7, 3.3), "k": r.uniform(0.45, 0.55)}
            for n in CTL_SIZES
        ]}
    if workload == "ctl_qgrid":
        return {"values": stratified(r, 0.5, 4.0, QGRID_VALUES)}
    if workload == "sweep_small":
        return {"values": stratified(r, 0.02, 1.0, SWEEP_VALUES)}
    raise ValueError(f"unknown workload {workload!r}")


def slope_root(beta: float, horizon: float = 1.0) -> float:
    """Slope ``a`` of the penalized-length extremal on ``[0, horizon]``, ``x(0) = 0``:
    the root of ``a/sqrt(1+a^2) + 2*beta*horizon*(a*horizon - 1) = 0``, by bisection."""
    lo, hi = -1.0 / horizon, 1.0 / horizon  # the left side is increasing in a

    def h(a):
        return a / math.sqrt(1.0 + a * a) + 2.0 * beta * horizon * (a * horizon - 1.0)

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if h(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """``tsvar.cli.main`` in this process, with its output captured."""
    import tsvar.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = tsvar.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def verify(ini: Path, csv: Path) -> str:
    """`tsvar verify` of a written solution: ``""`` when it passes, else its verdict."""
    rc, text, err = run_cli(["verify", str(ini), str(csv), "--tolerance", repr(VERIFY_TOL)])
    return "" if rc == 0 else (text.strip().splitlines() or [err.strip()])[-1]


def fail(op: Op, why: str, wrong: bool = False) -> None:
    if not op.failure:
        op.failure = why
    op.wrong = op.wrong or wrong


def solve_failure(op: Op) -> str:
    """Why a solve op failed to produce a converged solution, or ``""``."""
    if op.error:
        return f"raised {op.error}"
    if op.solution is None:
        return "no solution"
    if not op.solution.converged:
        return "not converged"
    return ""


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.workdir = Path(workdir)
        self.inputs = inputs(self.name, seed)
        self.cache_entries = {"diff": 0, "compile": 0}
        self.false_certificates: set[int] = set()  # ids of ops that got one

    def setup(self) -> None:
        """Program work before the first op."""
        import tsvar.expr

        # the lru caches themselves, looked up before any wrapper is installed
        self._caches = {"diff": tsvar.expr.diff, "compile": tsvar.expr.compile_fn}

    def note_caches(self, clear: bool) -> None:
        """Record cache sizes; ``clear`` empties them as a fresh CLI process would."""
        for key, fn in self._caches.items():
            info = getattr(fn, "cache_info", None)
            if info is not None:
                self.cache_entries[key] = max(self.cache_entries[key], info().currsize)
            if clear and hasattr(fn, "cache_clear"):
                fn.cache_clear()

    def run_pass(self, ops: OpLog) -> None:
        raise NotImplementedError

    def check(self, passes: list[list[Op]]) -> None:
        """Mark failed ops; ``op.wrong`` when an output it produced is wrong."""
        raise NotImplementedError

    def digests(self) -> list[str]:
        """SHA-256 of the outputs of one pass, to compare runs with the same seed."""
        return []


class VarMesh(Workload):
    """Library solves of the penalized-length family on a short mesh ladder."""

    name = "var_mesh"

    def setup(self) -> None:
        super().setup()
        import tsvar as tv

        beta = self.inputs["beta"]
        f = tv.parse(f"sqrt(1 + v^2) + {beta!r}*(z - 1)^2")
        self.problems = [
            (n, tv.VariationalProblem(tv.TimeScale.uniform(0.0, 1.0, n), f, 0.0))
            for n in self.inputs["ladder"]
        ]
        self.opts = tv.SolveOptions()
        self.root = slope_root(beta)

    def run_pass(self, ops: OpLog) -> None:
        import tsvar as tv

        for n, p in self.problems:
            for solver in ("solve_variational", "solve_stationarity"):
                op = ops.begin(f"{solver} n={n}")
                try:
                    op.solution = getattr(tv, solver)(p, self.opts)
                except Exception as exc:  # an op boundary: record and go on
                    op.error = f"{type(exc).__name__}: {exc}"
                ops.end()
        self.note_caches(clear=False)

    def check(self, passes: list[list[Op]]) -> None:
        import numpy as np

        for op in (op for ops in passes for op in ops):
            why = solve_failure(op)
            if why:
                fail(op, why)
                continue
            x = op.solution.x
            slope = op.solution.slope
            line = self.root * (x.scale.points - x.scale.a)
            if abs(slope - self.root) > SLOPE_TOL:
                fail(op, f"slope {slope!r} vs root {self.root!r}", wrong=True)
            elif float(np.max(np.abs(x.values - line))) > SLOPE_TOL:
                fail(op, "trajectory is not linear", wrong=True)


def _ini(timescale: dict, problem: dict) -> str:
    lines = ["[timescale]", *(f"{k} = {v}" for k, v in timescale.items()),
             "", "[problem]", *(f"{k} = {v}" for k, v in problem.items())]
    return "\n".join(lines) + "\n"


def _params(**values: float) -> str:
    return ", ".join(f"{k} = {v!r}" for k, v in values.items())


class CtlMesh(Workload):
    """`tsvar solve` on control files with seeded coefficients, large uniform meshes."""

    name = "ctl_mesh"

    def setup(self) -> None:
        super().setup()
        self.files = []
        for j, spec in enumerate(self.inputs["ops"]):
            ini = self.workdir / f"ctl_mesh_{j}.ini"
            ini.write_text(_ini(
                {"kind": "uniform", "a": 0, "b": 1, "n": spec["n"]},
                {"type": "control", "f": "wu*u^2 + wx*x^2 + wz*(z - 1)^2",
                 "g": "u - k*x", "alpha": 0,
                 "params": _params(wu=spec["wu"], wx=spec["wx"], wz=spec["wz"], k=spec["k"])},
            ), encoding="utf-8")
            out = self.workdir / f"ctl_mesh_{j}"
            out.mkdir(exist_ok=True)
            self.files.append((spec["n"], ini, out))
        self.results: dict[int, tuple[int, int, str, str]] = {}  # op id -> (j, rc, stderr, digest)

    def run_pass(self, ops: OpLog) -> None:
        for j, (n, ini, out) in enumerate(self.files):
            op = ops.begin(f"solve n={n}")
            rc, _, err = run_cli(["solve", str(ini), "--out-dir", str(out)])
            ops.end()
            digest = hashlib.sha256()
            for name in ("solution.csv", "solution.json"):
                path = out / name
                digest.update(path.read_bytes() if path.exists() else b"")
            self.results[op.id] = (j, rc, err, digest.hexdigest())
            self.note_caches(clear=True)

    def check(self, passes: list[list[Op]]) -> None:
        first: dict[int, str] = {}
        verified: dict[int, str] = {}
        for op in (op for ops in passes for op in ops):
            j, rc, err, digest = self.results[op.id]
            if rc not in (0, 2):
                fail(op, f"exit {rc}: {err.strip()}")
                continue
            if first.setdefault(j, digest) != digest:
                fail(op, "solution files differ from an earlier run of the same input", wrong=True)
            if rc == 2:
                fail(op, "not converged")
                continue
            if j not in verified:
                # every converged run of op j wrote the same bytes, so verify them once
                _, ini, out = self.files[j]
                verified[j] = verify(ini, out / "solution.csv")
            if verified[j]:
                fail(op, f"tsvar verify: {verified[j]}", wrong=True)

    def digests(self) -> list[str]:
        seen = {}
        for j, _, _, digest in self.results.values():
            seen.setdefault(j, digest)
        return [f"solve n={self.files[j][0]}: {seen[j]}" for j in sorted(seen)]


class SweepWorkload(Workload):
    """`tsvar sweep` of one problem file over seeded values of ``w``; one op per row."""

    def setup(self) -> None:
        super().setup()
        self.ini = self.workdir / f"{self.name}.ini"
        self.ini.write_text(self.problem_file(1.0), encoding="utf-8")
        self.values = ",".join(repr(v) for v in self.inputs["values"])
        self.tables: list[tuple[int, str, str]] = []  # (rc, stdout, stderr) per pass

    def problem_file(self, value: float) -> str:
        raise NotImplementedError

    def run_pass(self, ops: OpLog) -> None:
        self.tables.append(run_cli(
            ["sweep", str(self.ini), "--param", "w", "--values", self.values]))
        self.note_caches(clear=True)

    def check(self, passes: list[list[Op]]) -> None:
        first_rc, first_table, _ = self.tables[0]
        for ops, (rc, table, err) in zip(passes, self.tables):
            if len(ops) != len(self.inputs["values"]):
                for op in ops:
                    fail(op, f"sweep exit {rc} after {len(ops)} rows: {err.strip()}")
                continue
            for op in ops:
                why = solve_failure(op)
                if why:
                    fail(op, why)
            if (rc, table) != (first_rc, first_table):
                for op in ops:
                    fail(op, "sweep output differs from an earlier run of the same input",
                         wrong=True)
        self.check_rows(passes)

    def check_rows(self, passes: list[list[Op]]) -> None:
        pass

    def digests(self) -> list[str]:
        rc, table, _ = self.tables[0]
        return [f"sweep table (exit {rc}): {hashlib.sha256(table.encode()).hexdigest()}"]


class CtlQgrid(SweepWorkload):
    """Warm-started control sweep on a geometric q-grid with implicit dynamics."""

    name = "ctl_qgrid"

    def problem_file(self, value: float) -> str:
        return _ini(
            {"kind": "qgrid", "q": 1.04, "k_min": 0, "k_max": 82, "include_zero": "true"},
            {"type": "control", "f": "u^2 + w*x^2 + 3*(z - 1)^2", "g": "u - 0.5*x",
             "alpha": 0, "params": _params(w=value)},
        )

    def check_rows(self, passes: list[list[Op]]) -> None:
        import tsvar.cli

        # rows repeat exactly across passes (checked above), so verify the first pass
        for i, op in enumerate(passes[0]):
            if op.failure:
                continue
            value = self.inputs["values"][i]
            ini = self.workdir / f"row_{i}.ini"
            csv = self.workdir / f"row_{i}.csv"
            ini.write_text(self.problem_file(value), encoding="utf-8")
            tsvar.cli.write_solution_csv(csv, op.solution)
            why = verify(ini, csv)
            if why:
                for ops in passes:
                    if len(ops) > i:
                        fail(ops[i], f"tsvar verify: {why}", wrong=True)


class SweepSmall(SweepWorkload):
    """Many tiny solves: per-solve fixed costs (parse, diff, compile, screen) dominate.

    The swept ``w`` weighs a ``cos(x)`` term, so every row is a well-posed problem
    whose running cost is not convex; a ``sufficient`` verdict on any row is a
    false certificate.
    """

    name = "sweep_small"

    def problem_file(self, value: float) -> str:
        return _ini(
            {"kind": "integers", "a": 0, "b": 8},
            {"type": "variational", "f": "sqrt(1 + v^2) + 2*(z - 1)^2 + w*cos(x)",
             "alpha": 0, "params": _params(w=value)},
        )

    @staticmethod
    def known_convex(value: float) -> bool:
        # f is a sum of terms in v, z and x alone, so it is convex exactly when each
        # term is; w*cos(x) has second derivative -w*cos(x), which changes sign
        # for every w != 0
        return value == 0.0

    def check_rows(self, passes: list[list[Op]]) -> None:
        for ops in passes:
            for value, op in zip(self.inputs["values"], ops):
                sol = op.solution
                if sol is not None and sol.verdict.sufficient and not self.known_convex(value):
                    # a wrong verdict on a correct solution: counted in the traced
                    # run's false_certificates and error_rate, not as a failed op,
                    # so that failed and success_rate keep judging the solves
                    self.false_certificates.add(op.id)


WORKLOADS = {w.name: w for w in (VarMesh, CtlMesh, CtlQgrid, SweepSmall)}
