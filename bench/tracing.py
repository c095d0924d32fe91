"""Op boundaries and spans around the calls into tsvar's modules.

Everything here is recorded from outside the program: ``Instrument``
replaces public functions of the tsvar modules with wrappers and puts the
originals back on ``uninstall``.  A name that one module imports from
another with ``from ... import`` is bound in several module namespaces, so
each wrapper replaces every binding of the original object.

Without a tracer the wrappers only mark op boundaries (one op per row inside
``sweep``) and keep each solve's ``Solution`` for the output checks.  With a
tracer every wrapped call also becomes a span: name, start, end, parent and
op id.  The callables that ``compile_fn`` returns (the pointwise kernel) run
millions of times per solve, so they are not spans: their calls, points and
time are added to the innermost open span, and count as covered time when
that span's self time is computed.
"""

from __future__ import annotations

import importlib
import inspect
import math
import os
import time
from dataclasses import dataclass, field

perf = time.perf_counter

# Public functions wrapped in the traced run, by module.  Dotted names are
# class attributes; names missing from the module are skipped.
SPANNED = {
    "timescale": (
        "TimeScale.from_points", "TimeScale.integer_range", "TimeScale.uniform",
        "TimeScale.q_grid", "TimeScale.matches", "TimeScale.index_of",
        "TimeScale.is_regular", "TimeScale.is_uniform_sampling",
        "TimeScale.is_integer_grid", "GridFunction.from_callable",
        "GridFunction.from_values", "GridFunction.delta_integral",
        "require_same_scale",
    ),
    "expr": ("parse", "evaluate", "diff", "compile_fn", "to_text", "variables", "substitute"),
    "problem": ("objective", "objective_control", "norm1", "ControlProblem.from_variational"),
    "conditions": (
        "euler_lagrange_residual", "transversality_residual",
        "transversality_residual_classical", "transversality_residual_discrete",
        "variational_residuals", "hamiltonian_residuals",
        "transversality_residual_control_classical",
        "sufficiency_check", "sufficiency_check_variational",
    ),
    "solver": (
        "solve_variational", "solve_control", "solve_stationarity",
        "brute_force_oracle", "sweep",
    ),
    "cli": (
        "main", "load_problem_file", "ProblemFile.build_problem",
        "write_solution_csv", "write_solution_json",
    ),
}
# Wrapped in the untraced run too: op boundaries and solutions for the checks.
HOOKED = {"solver": ("solve_variational", "solve_control", "solve_stationarity", "sweep")}
SOLVES = ("solver.solve_variational", "solver.solve_control", "solver.solve_stationarity")


# -- ops -----------------------------------------------------------------------


@dataclass
class Op:
    id: int
    label: str
    start: float
    end: float = math.nan
    solution: object = None
    error: str = ""
    failure: str = ""  # why the op counts as failed; empty when it succeeded
    wrong: bool = False  # a solution or file it produced failed an output check

    @property
    def latency(self) -> float:
        return self.end - self.start


class OpLog:
    """Ops in the order they ran; a new op ends the open one.

    With a ``clock`` (a ``hostspeed.HostSpeed``), the host's speed is sampled
    between ops, outside every op's latency.
    """

    def __init__(self, clock=None):
        self.ops: list[Op] = []
        self.current: Op | None = None
        self.tracer: Tracer | None = None
        self.clock = clock

    def begin(self, label: str) -> Op:
        self.end()
        if self.clock is not None:
            self.clock.maybe_sample()
        op = Op(len(self.ops), label, perf())
        self.ops.append(op)
        self.current = op
        if self.tracer is not None:
            self.tracer.op = op.id
        return op

    def end(self) -> None:
        if self.current is not None:
            self.current.end = perf()
            self.current = None
        if self.tracer is not None:
            self.tracer.op = -1


# -- spans ---------------------------------------------------------------------


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "kernel_calls",
                 "kernel_points", "kernel_s", "g_calls", "f_points", "last_args")

    def __init__(self, name, start, parent, op, end=math.nan):
        self.name, self.start, self.end, self.parent, self.op = name, start, end, parent, op
        self.kernel_calls = self.kernel_points = self.g_calls = self.f_points = 0
        self.kernel_s = 0.0
        self.last_args = None


def _points(args) -> int:
    """Grid points in one kernel call: 1 for scalars, the array size otherwise."""
    for a in args:
        size = getattr(a, "size", 1)
        if size > 1:
            return size
    return 1


class Tracer:
    """Spans kept in memory, plus the per-solve records of the solver layer."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op = -1
        self.loose = Span("(outside)", 0.0, -1, -1)  # kernel calls with no open span
        self.solves: list[dict] = []
        self.problems: list = []  # problems of the open solves, innermost last
        self.write_bytes = 0

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(Span(name, perf(), parent, self.op))
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = perf()
        self.stack.pop()

    def kernel(self, fn, role: str):
        """Wrap a compiled pointwise callable; ``role`` is "f", "g" or ""."""
        spans, stack, loose = self.spans, self.stack, self.loose

        def kernel(*args, **kwargs):
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                rec = spans[stack[-1]] if stack else loose
                rec.kernel_calls += 1
                rec.kernel_s += dt
                try:
                    fresh = args != rec.last_args
                except (ValueError, TypeError):  # array arguments
                    fresh = True
                if fresh:
                    rec.kernel_points += _points(args)
                    rec.last_args = args
                if role == "g":
                    rec.g_calls += 1
                elif role == "f":
                    rec.f_points += _points(args)

        return kernel


# -- installing the wrappers ----------------------------------------------------


@dataclass
class Instrument:
    ops: OpLog
    tracer: Tracer | None = None
    _saved: list = field(default_factory=list)

    def install(self) -> None:
        import tsvar

        self.ops.tracer = self.tracer
        mods = {short: importlib.import_module(f"tsvar.{short}") for short in SPANNED}
        namespaces = [tsvar, *mods.values()]
        for short, paths in (SPANNED if self.tracer else HOOKED).items():
            mod = mods[short]
            for path in paths:
                owner_name, _, attr = path.rpartition(".")
                name = f"{short}.{path}"
                if owner_name:
                    owner = getattr(mod, owner_name, None)
                    raw = vars(owner).get(attr) if owner is not None else None
                    if raw is None:
                        continue
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(name, raw.__func__))
                    elif inspect.isfunction(raw):
                        new = self._wrap(name, raw)
                    else:  # a property or cached_property is an attribute, not a call
                        continue
                    self._set(owner, attr, raw, new)
                    continue
                fn = getattr(mod, attr, None)
                if fn is None:
                    continue
                new = self._wrap(name, fn)
                for ns in namespaces:
                    for key in [k for k, v in vars(ns).items() if v is fn]:
                        self._set(ns, key, fn, new)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()
        self.ops.tracer = None

    def _set(self, owner, attr, raw, new) -> None:
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, new)

    def _wrap(self, name: str, fn):
        if name in SOLVES:
            fn = self._solve_hook(fn)
        elif name == "solver.sweep":
            fn = self._sweep_hook(fn)
        elif self.tracer is None:
            return fn
        elif name == "expr.compile_fn":
            fn = self._compile_hook(fn)
        elif name.startswith("cli.write_solution_"):
            fn = self._write_hook(fn)
        if self.tracer is None:
            return fn
        tracer = self.tracer

        def spanned(*args, **kwargs):
            stack = tracer.stack
            if stack and tracer.spans[stack[-1]].name == name:  # recursion
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return spanned

    def _sweep_hook(self, fn):
        """One op per sweep row: a row starts when the sweep builds its problem."""
        ops = self.ops

        def sweep(problem_factory, *args, **kwargs):
            def factory(value):
                ops.begin(f"row {value!r}")
                return problem_factory(value)

            try:
                return fn(factory, *args, **kwargs)
            finally:
                ops.end()

        return sweep

    def _solve_hook(self, fn):
        """Keep the solution on the current op; traced, also count steps."""
        import tsvar.solver

        ops, tracer = self.ops, self.tracer
        default_tol = tsvar.solver.SolveOptions().gradient_tolerance
        sig = inspect.signature(fn)
        takes_callback = "on_accept" in sig.parameters

        def solve(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            p = next(iter(bound.arguments.values()))
            opts = bound.arguments.get("opts")
            steps = [0]
            if tracer is not None and takes_callback:
                user = bound.arguments.get("on_accept")

                def on_accept(y, value):
                    steps[0] += 1
                    if user is not None:
                        user(y, value)

                bound.arguments["on_accept"] = on_accept
            if tracer is not None:
                tracer.problems.append(p)
            sol = None
            try:
                sol = fn(*bound.args, **bound.kwargs)
            except Exception as exc:
                if ops.current is not None:
                    ops.current.error = f"{type(exc).__name__}: {exc}"
                raise
            finally:
                if tracer is not None:
                    tracer.problems.pop()
                    span = tracer.spans[tracer.stack[-1]]
                    tracer.solves.append({
                        "span": tracer.stack[-1], "op": tracer.op, "n": p.scale.n,
                        "iterations": sol.iterations if sol is not None else 0,
                        "accepted": steps[0] if takes_callback else None,
                        "converged": bool(sol is not None and sol.converged),
                        "sup": sol.report.sup_norm if sol is not None else math.nan,
                        "tol": opts.gradient_tolerance if opts is not None else default_tol,
                        "f_points": span.f_points,
                    })
            if ops.current is not None:
                ops.current.solution = sol
            return sol

        return solve

    def _compile_hook(self, fn):
        tracer = self.tracer

        def compile_fn(e, *args, **kwargs):
            p = tracer.problems[-1] if tracer.problems else None
            role = ""
            if p is not None:
                role = "f" if e == p.f else "g" if e == getattr(p, "g", None) else ""
            return tracer.kernel(fn(e, *args, **kwargs), role)

        return compile_fn

    def _write_hook(self, fn):
        tracer = self.tracer

        def write(path, *args, **kwargs):
            result = fn(path, *args, **kwargs)
            tracer.write_bytes += os.path.getsize(path)
            return result

        return write


# -- analysis ---------------------------------------------------------------------


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the time its child spans and its kernel calls cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    return [
        (s.end - s.start)
        - _covered([(spans[c].start, spans[c].end) for c in children[i]], s.start, s.end)
        - s.kernel_s
        for i, s in enumerate(spans)
    ]


def outermost(spans: list[Span], member) -> list[int]:
    """Spans satisfying ``member`` with no ancestor that satisfies it."""
    out = []
    for i, s in enumerate(spans):
        if not member(s.name):
            continue
        j = s.parent
        while j >= 0 and not member(spans[j].name):
            j = spans[j].parent
        if j < 0:
            out.append(i)
    return out


# What the traced run reports, in this order, with units.  Counts and times
# are per pass of the workload's ops.  ``busy_s`` is the time inside a
# layer's outermost spans; ``self_s`` subtracts child spans and kernel calls.
#   kernel.points     runs of consecutive kernel calls at the same arguments
#                     count once (array arguments count their size)
#   kernel.g.calls    calls of the compiled dynamics made by the solver itself:
#                     the inner iterations of the implicit state step
#   solver.evals      points of the compiled cost f evaluated by the solver
#                     itself, per differentiation point (n - 1); minimizing
#                     solvers only, like accepted_steps
#   solver.unreported_steps   steps seen by on_accept minus the iterations the
#                     solution reports: restarts the report hides
#   solver.converged_above_tol   solves reporting converged with a residual
#                     sup at or above the requested gradient tolerance
#   solver.n_exponent log-log slope of solve time over the two largest mesh
#                     sizes of the workload; 0 when it has one size
#   error_rate        share of all ops of the run that failed or got a false
#                     certificate (a false certificate alone does not fail an op)
LAYER_METRICS = {
    "kernel.calls": "count", "kernel.points": "count", "kernel.busy_s": "s",
    "kernel.g.calls": "count",
    "solver.calls": "count", "solver.self_s": "s", "solver.iterations": "count",
    "solver.accepted_steps": "count", "solver.evals": "count", "solver.accept_ratio": "ratio",
    "solver.unreported_steps": "count", "solver.converged_above_tol": "count",
    "solver.n_exponent": "1",
    "expr.parse.calls": "count", "expr.parse.busy_s": "s",
    "expr.diff.calls": "count", "expr.diff.busy_s": "s", "expr.diff.cache_entries": "count",
    "expr.compile.calls": "count", "expr.compile.busy_s": "s",
    "expr.compile.cache_entries": "count",
    "conditions.residuals.calls": "count", "conditions.residuals.busy_s": "s",
    "conditions.sufficiency.calls": "count", "conditions.sufficiency.busy_s": "s",
    "conditions.sufficiency.false_certificates": "count",
    "problem.objective.calls": "count", "problem.objective.busy_s": "s",
    "timescale.busy_s": "s",
    "cli.load.busy_s": "s", "cli.build.busy_s": "s", "cli.write.busy_s": "s",
    "cli.write.bytes": "bytes", "cli.self_s": "s",
    "trace.overhead_ratio": "ratio", "error_rate": "ratio",
}
RESIDUALS = tuple(f"conditions.{n}" for n in SPANNED["conditions"] if not n.startswith("sufficiency"))
GROUPS = {
    "expr.parse": ("expr.parse",),
    "expr.diff": ("expr.diff",),
    "expr.compile": ("expr.compile_fn",),
    "conditions.residuals": RESIDUALS,
    "conditions.sufficiency": ("conditions.sufficiency_check", "conditions.sufficiency_check_variational"),
    "problem.objective": ("problem.objective", "problem.objective_control"),
    "cli.load": ("cli.load_problem_file",),
    "cli.build": ("cli.ProblemFile.build_problem",),
    "cli.write": ("cli.write_solution_csv", "cli.write_solution_json"),
}


def n_exponent(spans: list[Span], solves: list[dict]) -> float:
    """Log-log slope of total solve time over the two largest mesh sizes; 0 with one size."""
    by_n: dict[int, float] = {}
    for rec in solves:
        s = spans[rec["span"]]
        by_n[rec["n"]] = by_n.get(rec["n"], 0.0) + (s.end - s.start)
    if len(by_n) < 2:
        return 0.0
    (n1, t1), (n2, t2) = sorted(by_n.items())[-2:]
    return math.log(t2 / t1) / math.log(n2 / n1)


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-layer metrics of the traced passes, per pass except ratios."""
    spans = tracer.spans
    own = self_times(spans)
    m: dict[str, float] = {}
    for group, names in GROUPS.items():
        idx = outermost(spans, names.__contains__)
        m[f"{group}.calls"] = len(idx)
        m[f"{group}.busy_s"] = sum(spans[i].end - spans[i].start for i in idx)
    m["timescale.busy_s"] = sum(
        spans[i].end - spans[i].start
        for i in outermost(spans, lambda name: name.startswith("timescale."))
    )
    recs = [*spans, tracer.loose]
    m["kernel.calls"] = sum(s.kernel_calls for s in recs)
    m["kernel.points"] = sum(s.kernel_points for s in recs)
    m["kernel.busy_s"] = sum(s.kernel_s for s in recs)
    m["kernel.g.calls"] = sum(s.g_calls for s in spans if s.name in SOLVES)
    solves = tracer.solves
    m["solver.calls"] = len(solves)
    m["solver.self_s"] = sum(t for s, t in zip(spans, own) if s.name.startswith("solver."))
    m["solver.iterations"] = sum(r["iterations"] for r in solves)
    stepped = [r for r in solves if r["accepted"] is not None]
    m["solver.accepted_steps"] = sum(r["accepted"] for r in stepped)
    m["solver.unreported_steps"] = sum(r["accepted"] - r["iterations"] for r in stepped)
    # objective evaluations: points of f evaluated by the solver itself, per differentiation point
    m["solver.evals"] = sum(r["f_points"] / (r["n"] - 1) for r in stepped)
    m["solver.converged_above_tol"] = sum(1 for r in solves if r["converged"] and r["sup"] >= r["tol"])
    m["cli.write.bytes"] = tracer.write_bytes
    m["cli.self_s"] = sum(t for s, t in zip(spans, own) if s.name == "cli.main")
    per_pass = {k: v / passes for k, v in m.items()}
    per_pass["solver.accept_ratio"] = (
        m["solver.accepted_steps"] / m["solver.evals"] if m["solver.evals"] else 0.0
    )
    per_pass["solver.n_exponent"] = n_exponent(spans, solves)
    return per_pass


def op_counts(tracer: Tracer) -> dict[int, dict]:
    """Deterministic counts per op id: spans by name, kernel calls and points, solver steps."""
    out: dict[int, dict] = {}
    for s in [*tracer.spans, tracer.loose]:
        c = out.setdefault(s.op, {"spans": {}, "kernel.calls": 0, "kernel.points": 0,
                                  "kernel.g.calls": 0, "solver.iterations": 0,
                                  "solver.accepted_steps": 0})
        if s is not tracer.loose:
            c["spans"][s.name] = c["spans"].get(s.name, 0) + 1
        c["kernel.calls"] += s.kernel_calls
        c["kernel.points"] += s.kernel_points
        if s.name in SOLVES:
            c["kernel.g.calls"] += s.g_calls
    for r in tracer.solves:
        c = out[r["op"]]
        c["solver.iterations"] += r["iterations"]
        c["solver.accepted_steps"] += r["accepted"] or 0
    return out
