"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import csv
import json
import math

import numpy as np

import tsvar as tv
import tsvar.conditions as conditions
import tsvar.solver as solver


def bisect_root(fn, lo: float, hi: float, iters: int = 200) -> float:
    """Plain bisection; the scalar oracle used against solver output."""
    flo = fn(lo)
    fhi = fn(hi)
    assert flo * fhi <= 0, "root not bracketed"
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if (fm < 0) == (flo < 0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    return 0.5 * (lo + hi)


def minimal_slope_root(beta: float) -> float:
    """Root of a/sqrt(1+a^2) + 2*beta*(a-1) = 0, the boundary equation of the
    minimal-length problem with an end-value penalty."""
    return bisect_root(lambda a: a / math.sqrt(1 + a * a) + 2 * beta * (a - 1), 0.0, 1.0)


def minimal_length_problem(beta: float, n: int) -> tv.VariationalProblem:
    """Length functional plus end-value penalty on a uniform sampling of [0, 1]."""
    scale = tv.TimeScale.uniform(0.0, 1.0, n)
    f = tv.parse(f"sqrt(1 + v^2) + ({beta:.17g})*(z-1)^2")
    return tv.VariationalProblem(scale, f, 0.0)


def endpoint_penalty_control(scale: tv.TimeScale) -> tv.ControlProblem:
    """Quadratic control cost with a time-weighted end-value penalty, g = u."""
    return tv.ControlProblem(
        scale, tv.parse("u^2 + t^2*(z-1)^2"), tv.parse("u"), 0.0
    )


def endpoint_tracking_control(n: int) -> tv.ControlProblem:
    """Quadratic cost with end-value-coupled dynamics on a sampling of [-1, 1]."""
    scale = tv.TimeScale.uniform(-1.0, 1.0, n)
    return tv.ControlProblem(scale, tv.parse("u^2"), tv.parse("u + z*t"), 1.0)


def reference_costate(p: tv.ControlProblem, x, u, zeta: float) -> np.ndarray:
    """Multiplier samples by two backward sweeps that each evaluate the
    partials at every point; a report evaluates them once, in its batch."""
    fx = tv.compile_fn(tv.diff(p.f, "x"))
    fz = tv.compile_fn(tv.diff(p.f, "z"))
    gx = tv.compile_fn(tv.diff(p.g, "x"))
    gz = tv.compile_fn(tv.diff(p.g, "z"))
    pts, mu = p.scale.points, p.scale.mu_values
    n = p.scale.n
    k = n - 2

    def sweep(lam_end):
        lam = np.empty(n - 1)
        lam[k] = lam_end
        for i in range(k - 1, -1, -1):
            args = (pts[i], x[i + 1], 0.0, zeta, u[i])
            lam[i] = (lam[i + 1] + mu[i] * fx(*args)) / (1.0 - mu[i] * gx(*args))
        args_k = (pts[k], x[k + 1], 0.0, zeta, u[k])
        rhs = mu[k] * (fx(*args_k) + lam[k] * gx(*args_k)) + math.fsum(
            mu[i] * (fz(pts[i], x[i + 1], 0.0, zeta, u[i])
                     + lam[i] * gz(pts[i], x[i + 1], 0.0, zeta, u[i]))
            for i in range(n - 1)
        )
        return lam, rhs

    lam0, r0 = sweep(0.0)
    lam1, r1 = sweep(1.0)
    lam_end = r0 / (1.0 - (r1 - r0))
    return lam0 + lam_end * (lam1 - lam0)


def hamiltonian_stages(p: tv.ControlProblem, u, x, zeta: float) -> tuple[np.ndarray, list]:
    """``h_u`` and the nine Newton stage columns from the Hamiltonian form:
    with the multipliers that ``_costate`` solves for from one batch of
    ``f_x, f_z, g_x, g_z``, one batch of the partials of ``g`` and of
    ``H = f + lam*g``, ``diff(H, "u")`` and the six ``diff(diff(H, a), b)``,
    with ``lam`` as the sixth column.  The solver evaluates partials of ``f``
    and ``g`` alone and combines them with the multipliers afterwards."""
    H = tv.expr.Binary("add", p.f, tv.expr.Binary("mul", tv.expr.Var("lam"), p.g))
    ts = p.scale
    mu = ts.mu_values[:-1]
    cols = tv.problem.terms(ts, x, u=u, z=zeta)
    fx, fz, gx, gz = tv.problem.pointwise(
        *(tv.diff(e, a) for e in (p.f, p.g) for a in "xz"))(cols)
    lam = conditions._costate(ts, gx, fx, fz, gz)
    kernel = tv.problem.pointwise(
        *(tv.diff(p.g, a) for a in "xuz"), tv.diff(H, "u"),
        *(tv.diff(tv.diff(H, a), b) for a, b in ("xx", "xu", "xz", "uu", "uz", "zz")),
    )
    gx, gu, gz, hu, *w = kernel((*cols, lam))
    alpha = 1.0 / (1.0 - mu * gx)
    return hu, [alpha, mu * gu * alpha, mu * gz * alpha, *(mu * wk for wk in w)]


def reference_hamiltonian_residuals(p: tv.ControlProblem, x, u, lam) -> tv.ResidualReport:
    """The Hamiltonian report in its symbolic form: one batch of
    ``diff(H, a)`` for ``a`` in ``x, u, lam, z`` with ``H = f + lam*g``.
    ``tv.hamiltonian_residuals`` evaluates the partials of ``f`` and ``g``
    alone and forms those of ``H`` by array arithmetic.  ``lam`` enters the
    kernel as its sixth column."""
    H = tv.expr.Binary("add", p.f, tv.expr.Binary("mul", tv.expr.Var("lam"), p.g))
    ts = p.scale
    mu, xv, lv = ts.mu_values[:-1], x.values, lam.values
    hx, hu, hlam, hz = tv.problem.pointwise(*(tv.diff(H, a) for a in ("x", "u", "lam", "z")))(
        (*tv.problem.terms(ts, xv, u=u.values), lv[:-1])
    )
    state = np.diff(xv) / mu - hlam
    costate = np.diff(lv[:-1]) / mu[:-1] + hx[:-1]
    k = ts.n - 2
    tc = float(lv[k] - mu[k] * hx[k] - tv.problem.integrate_terms(ts, hz))
    sup = max([0.0, *(float(np.max(np.abs(a))) for a in (state, costate, hu) if len(a)), abs(tc)])
    return tv.ResidualReport(
        scale=ts, state_residuals=state, costate_residuals=costate,
        stationarity_residuals=hu, transversality=tc, sup_norm=sup,
    )


def reference_transversality_control_classical(p: tv.ControlProblem, x, u, lam) -> float:
    """End multiplier minus the integral of ``diff(H, "z")``, ``H = f + lam*g``."""
    H = tv.expr.Binary("add", p.f, tv.expr.Binary("mul", tv.expr.Var("lam"), p.g))
    ts = p.scale
    (hz,) = tv.problem.pointwise(tv.diff(H, "z"))(
        (*tv.problem.terms(ts, x.values, u=u.values), lam.values[:-1])
    )
    return float(lam.values[ts.n - 2]) - tv.problem.integrate_terms(ts, hz)


def random_scale(rng: np.random.Generator, max_points: int = 8, min_gap: float = 0.1) -> tv.TimeScale:
    """Random discrete scale with gaps bounded away from zero."""
    n = int(rng.integers(3, max_points + 1))
    gaps = rng.uniform(min_gap, 1.5, size=n - 1)
    start = float(rng.uniform(-2.0, 2.0))
    pts = start + np.concatenate(([0.0], np.cumsum(gaps)))
    return tv.TimeScale.from_points(pts)


def random_quadratic_problem(
    rng: np.random.Generator, scale: tv.TimeScale | None = None
) -> tv.VariationalProblem:
    """Strictly convex quadratic Lagrangian in (x, v, z) with t-dependent
    linear terms; every such problem has a unique minimizer."""
    if scale is None:
        scale = random_scale(rng)
    r = rng.uniform(-0.7, 0.7, size=(3, 3))
    m = r.T @ r + 0.4 * np.eye(3)
    lin = rng.uniform(-1.0, 1.0, size=3)
    ct = rng.uniform(-0.5, 0.5)
    names = ("x", "v", "z")
    terms = []
    for i in range(3):
        terms.append(f"({m[i, i]:.17g})*{names[i]}^2")
        for j in range(i + 1, 3):
            terms.append(f"({2 * m[i, j]:.17g})*{names[i]}*{names[j]}")
    for i in range(3):
        terms.append(f"({lin[i]:.17g})*{names[i]}")
    terms.append(f"({ct:.17g})*t*v")
    f = tv.parse(" + ".join(terms))
    alpha = float(rng.uniform(-1.0, 1.0))
    return tv.VariationalProblem(scale, f, alpha)


def random_quadratic_control(rng: np.random.Generator) -> tv.ControlProblem:
    """Strictly convex quadratic cost in (x, u, z) with t-dependent linear
    terms, and dynamics affine in (x, u, z) with the end value in both; the
    reduced problem is a strictly convex quadratic in the controls."""
    scale = random_scale(rng)
    r = rng.uniform(-0.7, 0.7, size=(3, 3))
    m = r.T @ r + 0.4 * np.eye(3)
    lin = rng.uniform(-1.0, 1.0, size=3)
    names = ("x", "u", "z")
    parts = []
    for i in range(3):
        parts.append(f"({m[i, i]:.17g})*{names[i]}^2")
        for j in range(i + 1, 3):
            parts.append(f"({2 * m[i, j]:.17g})*{names[i]}*{names[j]}")
        parts.append(f"({lin[i]:.17g})*{names[i]}")
    parts.append(f"({rng.uniform(-0.5, 0.5):.17g})*t*u")
    gx, gz = rng.uniform(-0.3, 0.3, size=2)
    gu, g0 = rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5)
    g = tv.parse(f"({gx:.17g})*x + ({gu:.17g})*u + ({gz:.17g})*z + ({g0:.17g})*t")
    alpha = float(rng.uniform(-1.0, 1.0))
    return tv.ControlProblem(scale, tv.parse(" + ".join(parts)), g, alpha)


def admissible_grid(rng: np.random.Generator, p: tv.VariationalProblem) -> tv.GridFunction:
    vals = rng.uniform(-1.5, 1.5, size=p.scale.n)
    vals[0] = p.alpha
    return tv.GridFunction(p.scale, vals)


def stationarity_residual(p: tv.VariationalProblem, x: tv.GridFunction) -> np.ndarray:
    """``h = f_v + lam`` of the control form ``g = u`` at the slopes of ``x``:
    the gradient over the slopes with the graininess divided out."""
    cp = tv.ControlProblem.from_variational(p)
    h, _ = solver._Core(cp).derivatives(x.delta_values, x.values, float(x.values[-1]))
    return h


def reference_variational(p: tv.VariationalProblem, x: tv.GridFunction) -> dict:
    """The variational evaluators in the ``v`` form: ``diff(p.f, a)`` for ``a``
    in ``x, v, z`` and ``p.f`` itself, compiled as they stand and evaluated on
    the columns ``(t_i, x_{i+1}, v_i, z)`` with the slope column ``v``.  The
    package evaluates the control form ``g = u`` at ``u = v`` instead."""
    ts, xv = p.scale, x.values
    mu = ts.mu_values
    cols = (ts.points[:-1], xv[1:], (xv[1:] - xv[:-1]) / mu[:-1], np.float64(xv[-1]))
    fx, fv, fz, f = tv.problem.pointwise(*(tv.diff(p.f, a) for a in "xvz"), p.f)(cols)
    k = ts.n - 2
    fz_integral = tv.problem.integrate_terms(ts, fz)
    el = (fv[1:] - fv[:-1]) / mu[:-2] - fx[:-1]
    # the one-step integral of the general form is the regular form's product
    boundary = float(fv[k] + mu[k] * fx[k] + fz_integral)
    return {
        "objective": tv.problem.integrate_terms(ts, f),
        "euler_lagrange": el,
        "general": boundary,
        "regular": boundary,
        "classical": float(fv[-1] + fz_integral),
        "discrete": float(fx[-1] + fv[-1] + math.fsum(fz)),
        "sup_norm": float(max(np.max(np.abs(el), initial=0.0), abs(boundary))),
    }


def objective_derivatives(
    p: tv.VariationalProblem, y: np.ndarray, eps: float = 2e-4
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian of ``objective`` over the free values ``x[1:] = y``
    by central differences of its values alone."""

    def value(w):
        return tv.objective(p, tv.GridFunction(p.scale, np.concatenate(([p.alpha], w))))

    steps = eps * np.eye(y.size)
    grad = np.array([(value(y + e) - value(y - e)) / (2 * eps) for e in steps])
    hess = np.array([
        [(value(y + a + b) - value(y + a - b) - value(y - a + b) + value(y - a - b))
         / (4 * eps * eps) for b in steps]
        for a in steps
    ])
    return grad, 0.5 * (hess + hess.T)


def reference_oracle_variational(p: tv.VariationalProblem) -> tuple[np.ndarray, float]:
    """``(x, J)`` of a quadratic variational problem by the oracle that
    minimized over the free grid values ``x[1:] = y`` directly: the objective
    by the interpreted walk, polarized into ``1/2 y'Ay + b'y + c``, and
    ``A y = -b`` solved where ``A`` is positive definite."""
    pts, mu = p.scale.points[:-1].tolist(), p.scale.mu_values[:-1].tolist()

    def value(y: np.ndarray) -> float:
        x = [float(p.alpha), *y.tolist()]
        return math.fsum(h * tv.evaluate(p.f, {"t": t, "x": b, "v": (b - a) / h, "z": x[-1]})
                         for t, h, a, b in zip(pts, mu, x, x[1:]))

    A, b, _, _ = solver._polarize_quadratic(value, p.scale.n - 1)
    eig = np.linalg.eigvalsh(0.5 * (A + A.T))
    if eig[0] <= 1e-10 * max(1.0, abs(eig[-1])):
        raise tv.OracleError("stationary system is not positive definite; no unique minimizer")
    y = np.linalg.solve(A, -b)
    return np.concatenate(([p.alpha], y)), value(y)


# -- random expressions for the differentiation checks ------------------------

_EXPR_VARS = ("t", "x", "v", "z", "u", "lam")


def _random_tree(rng: np.random.Generator, depth: int) -> tv.Expr:
    roll = rng.random()
    if depth <= 0 or roll < 0.25:
        if rng.random() < 0.45:
            return tv.expr.Const(round(float(rng.uniform(0.2, 2.0)), 3))
        return tv.expr.Var(str(rng.choice(_EXPR_VARS)))
    if roll < 0.5:
        op = str(rng.choice(("neg", "sqrt", "exp", "log", "sin", "cos")))
        return tv.expr.Unary(op, _random_tree(rng, depth - 1))
    op = str(rng.choice(("add", "sub", "mul", "div", "pow"), p=(0.3, 0.2, 0.3, 0.1, 0.1)))
    left = _random_tree(rng, depth - 1)
    if op == "pow" and rng.random() < 0.8:
        right = tv.expr.Const(float(rng.integers(1, 4)))
    else:
        right = _random_tree(rng, depth - 1)
    return tv.expr.Binary(op, left, right)


def random_expr_and_env(rng: np.random.Generator, max_depth: int = 6, env: dict | None = None):
    """A random expression and a point where it and its partials are tame.

    Rejection keeps evaluation inside safe domains and magnitudes bounded so
    finite differences stay meaningful.  A given ``env`` is kept as the point
    and only the expression is drawn.
    """
    fixed = env
    while True:
        e = _random_tree(rng, int(rng.integers(2, max_depth + 1)))
        env = fixed or {name: float(rng.uniform(0.4, 1.6)) for name in _EXPR_VARS}
        try:
            val = tv.evaluate(e, env)
            if not math.isfinite(val) or abs(val) > 1e3:
                continue
            ok = True
            for name in _EXPR_VARS:
                dval = tv.evaluate(tv.diff(e, name), env)
                if not math.isfinite(dval) or abs(dval) > 1e3:
                    ok = False
                    break
            if ok:
                return e, env
        except tv.EvalError:
            continue


def central_difference(e: tv.Expr, env: dict, name: str) -> float | None:
    """Central difference with a per-point step ladder.

    A single fixed step cannot balance truncation against rounding across
    arbitrary trees, so the step closest to the symbolic value wins; this is
    the usual practice of derivative checkers.  Returns None when every
    probe leaves the safe domain.
    """
    sym = tv.evaluate(tv.diff(e, name), env)
    best = None
    for h in (1e-4, 1e-5, 1e-6):
        step = h * max(1.0, abs(env[name]))
        hi = dict(env, **{name: env[name] + step})
        lo = dict(env, **{name: env[name] - step})
        try:
            fd = (tv.evaluate(e, hi) - tv.evaluate(e, lo)) / (2 * step)
        except tv.EvalError:
            continue
        if best is None or abs(fd - sym) < abs(best - sym):
            best = fd
    return best


# -- reference compiler -----------------------------------------------------------
#
# The compiler ``expr.compile_fn`` was before it compiled one source per shape:
# every constant a literal in the source, one ``compile`` per tree.  The tests
# pin the current kernels' bits to these.


def _reference_py_src(e: tv.Expr) -> str:
    if isinstance(e, tv.expr.Const):
        return f"({e.value!r})"
    if isinstance(e, tv.expr.Var):
        return e.name
    if isinstance(e, tv.expr.Unary):
        if e.op == "neg":
            return f"(-{_reference_py_src(e.arg)})"
        return f"{e.op}({_reference_py_src(e.arg)})"
    a, b = _reference_py_src(e.left), _reference_py_src(e.right)
    if e.op == "pow":
        return f"_pow({a}, {b})"
    sym = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[e.op]
    return f"({a} {sym} {b})"


def reference_compile_fn(e: tv.Expr, array: bool = False):
    """``f(t, x, v, z, u, lam)`` from source with the constants as literals."""
    src = f"def _f(t=0.0, x=0.0, v=0.0, z=0.0, u=0.0, lam=0.0):\n    return {_reference_py_src(e)}\n"
    lib = np if array else math
    ns = {name: getattr(lib, name) for name in ("sqrt", "exp", "log", "sin", "cos")}
    ns["_pow"] = np.power if array else math.pow
    exec(compile(src, "<expr>", "exec"), ns)
    return ns["_f"]


# -- reference output writers ---------------------------------------------------
#
# The per-cell writers that ``tsvar solve`` used before it wrote a column at a
# time: ``json.dump(indent=2)`` over per-element ``float()`` lists, and one
# ``%.17g`` call per CSV cell.  The tests pin the current writers' bytes to these.


def _reference_fmt(v) -> str:
    if v is None or (isinstance(v, float) and math.isnan(v)):
        return ""
    return "%.17g" % v


def reference_solution_csv(path, sol, report=None) -> None:
    report = report or sol.report
    lam = report.lam
    ts = sol.x.scale
    el = report.el_residuals
    rows = []
    for i in range(ts.n):
        rows.append([
            _reference_fmt(float(ts.points[i])),
            _reference_fmt(float(sol.x.values[i])),
            _reference_fmt(float(sol.u.values[i])) if sol.u is not None else "",
            _reference_fmt(float(lam.values[i])) if lam is not None else "",
            _reference_fmt(float(el[i])) if el is not None and i < len(el) else "",
        ])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(["t", "x", "u", "lambda_sigma", "el_residual"])
        writer.writerows(rows)


def _reference_grid(g):
    if g is None:
        return None
    return [None if math.isnan(v) else float(v) for v in g.values]


def _reference_residuals(report) -> dict:
    out = {"sup_norm": report.sup_norm}
    for name, arr in (
        ("euler_lagrange", report.el_residuals),
        ("state", report.state_residuals),
        ("costate", report.costate_residuals),
        ("stationarity", report.stationarity_residuals),
    ):
        if arr is not None:
            out[name] = [float(r) for r in arr]
    if report.transversality is not None:
        out["transversality"] = float(report.transversality)
    return out


def reference_solution_json(path, sol, problem_type: str, report=None) -> None:
    report = report or sol.report
    lam = report.lam
    doc = {
        "problem_type": problem_type,
        "converged": sol.converged,
        "iterations": sol.iterations,
        "objective": sol.objective_value,
        "sufficiency": {"status": sol.verdict.status, "reason": sol.verdict.reason},
        "grids": {
            "t": [float(t) for t in sol.x.scale.points],
            "x": [float(v) for v in sol.x.values],
            "u": _reference_grid(sol.u),
            "lambda_sigma": _reference_grid(lam),
        },
        "residuals": _reference_residuals(report),
        "message": sol.message,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


# -- reference candidate reader and residual table -----------------------------
#
# ``tsvar verify``'s reader and table as they were before they worked by
# column: ``csv.DictReader`` with one ``float()`` call per cell, and one
# f-string per table cell.  The tests pin the current ones' output to them.


def reference_read_candidate(path, scale: tv.TimeScale):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "t" not in reader.fieldnames or "x" not in reader.fieldnames:
            raise tv.ProblemFileError(f"candidate {path} needs at least columns t and x")
        rows = list(reader)
    if len(rows) != scale.n:
        raise tv.ProblemFileError(
            f"candidate has {len(rows)} rows but the scale has {scale.n} points"
        )

    def column(name):
        if name not in rows[0]:
            return None
        vals = [row[name].strip() for row in rows]
        if all(v == "" for v in vals):
            return None
        out = np.empty(len(vals))
        for i, v in enumerate(vals):
            try:
                out[i] = float(v) if v else math.nan
            except ValueError:
                raise tv.ProblemFileError(
                    f"candidate {path} has a non-numeric {name} cell at row {i}: {v!r}"
                ) from None
        return out

    t = column("t")
    x = None if t is None else column("x")
    if x is None:
        raise tv.ProblemFileError(f"candidate {path} has empty t or x columns")
    pts = scale.points
    bad = np.flatnonzero(~(np.abs(t - pts) <= 1e-9 * np.maximum(1.0, np.abs(pts))))
    if bad.size:
        i = int(bad[0])
        raise tv.ProblemFileError(
            f"candidate time column mismatches the scale at row {i}: "
            f"{float(t[i])!r} vs {float(pts[i])!r}"
        )
    return x, column("u"), column("lambda_sigma")


def reference_residual_table(report: tv.ResidualReport) -> str:
    pts = report.scale.points
    cols = [(name, arr) for name, arr in report._families() if arr is not None]
    header = ["t"] + [name for name, _ in cols]
    lines = ["  ".join(f"{h:>16s}" for h in header)]
    for i, t in enumerate(pts):
        row = [f"{t:16.8g}"]
        for _, arr in cols:
            row.append(f"{arr[i]:16.6e}" if i < len(arr) else f"{'-':>16s}")
        lines.append("  ".join(row))
    if report.transversality is not None:
        lines.append(f"{'transversality':>16s}  {report.transversality:16.6e}")
    lines.append(f"{'sup norm':>16s}  {report.sup_norm:16.6e}")
    return "\n".join(lines)


# -- reference sufficiency screen -------------------------------------------------
#
# ``conditions.sufficiency_check`` as it was before it drew its samples into
# Python floats and before it proved the dynamics linear from their second
# partials: ``rng.choice`` for each ``t``, 64 sampled affinity probes of
# ``g``, numpy arrays for the probe points and midpoints, the scalar kernels
# called on ``np.float64`` elements.  The tests pin the current screen's
# draws, verdicts and witnesses to it wherever the dynamics are affine.

_REFERENCE_PROBES = 64


def _reference_linearity_check(p: tv.ControlProblem, rng: np.random.Generator):
    ts = p.scale.points[:-1]
    with np.errstate(all="ignore"):
        origin = np.broadcast_to(tv.expr.compile_fn(p.g, array=True)(ts), ts.shape)
    bad = np.flatnonzero(~np.isfinite(origin))
    if bad.size:
        t, val = float(ts[bad[0]]), float(origin[bad[0]])
        return tv.SufficiencyVerdict(
            "inconclusive", f"dynamics undefined: g(t,0,0,0) = {val:.3e} at t = {t!r}",
            (t, (0.0, 0.0, 0.0)),
        )
    g = tv.expr.compile_fn(p.g)
    for _ in range(_REFERENCE_PROBES):
        t = float(rng.choice(ts))
        w = rng.uniform(-4.0, 4.0, size=3)
        d = rng.uniform(-2.0, 2.0, size=3)
        try:
            f0 = g(t, w[0], 0.0, w[2], w[1])
            fp = g(t, w[0] + d[0], 0.0, w[2] + d[2], w[1] + d[1])
            fm = g(t, w[0] - d[0], 0.0, w[2] - d[2], w[1] - d[1])
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            return tv.SufficiencyVerdict(
                "inconclusive",
                f"dynamics undefined inside the probing box: {exc}",
                (t, tuple(w), tuple(d)),
            )
        second = fp - 2.0 * f0 + fm
        scale = 1.0 + abs(f0) + abs(fp) + abs(fm)
        if not abs(second) <= 1e-9 * scale:  # a NaN difference fails too
            return tv.SufficiencyVerdict(
                "inconclusive",
                f"dynamics fail the affinity probe: second difference {second:.3e}",
                (t, tuple(w), tuple(d)),
            )
    return conditions._PASSED_AFFINE if np.any(origin != 0.0) else conditions._PASSED


def reference_sufficiency_check(p: tv.ControlProblem, seed: int = 0) -> tv.SufficiencyVerdict:
    rng = np.random.default_rng(seed)
    passed = _reference_linearity_check(p, rng)
    if not passed.sufficient:
        return passed

    f = tv.expr.compile_fn(p.f)
    lo, hi = conditions._BOX
    pts = p.scale.points
    for _ in range(conditions._SAMPLES):
        t = float(rng.choice(pts[:-1]))
        a = rng.uniform(lo, hi, size=3)
        b = rng.uniform(lo, hi, size=3)
        m = 0.5 * (a + b)
        try:
            fa = f(t, a[0], 0.0, a[2], a[1])
            fb = f(t, b[0], 0.0, b[2], b[1])
            fm = f(t, m[0], 0.0, m[2], m[1])
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            return tv.SufficiencyVerdict(
                "inconclusive",
                f"running cost undefined inside the sampling box: {exc}",
                (t, tuple(a), tuple(b)),
            )
        slack = 1e-10 * (1.0 + abs(fa) + abs(fb))
        if fm > 0.5 * (fa + fb) + slack:
            return tv.SufficiencyVerdict(
                "inconclusive",
                f"midpoint convexity violated by {fm - 0.5 * (fa + fb):.3e}",
                (t, tuple(a), tuple(b)),
            )
    return passed


# -- the stationarity solver's own Newton loop, before it ran on _minimize -----


def _reference_backtrack(y: np.ndarray, d: np.ndarray, try_step):
    """The full step, then halvings while the step stays above the floor."""
    step = 1.0
    while True:
        trial = y + step * d
        try:
            state = try_step(trial, step)
        except solver._DOMAIN_ERRORS:
            state = None
        if state is not None:
            return trial, state
        step *= 0.5
        if not step * np.max(np.abs(d)) >= solver._STEP_TOLERANCE:
            return None


def reference_solve_stationarity(
    p: tv.VariationalProblem,
    opts: tv.SolveOptions | None = None,
    x0: tv.GridFunction | None = None,
) -> tv.Solution:
    """``solve_stationarity`` with its own start evaluation, Newton loop and
    backtracking, the bit reference for the loop it now shares; a step
    counts once it is taken."""
    opts = opts or tv.SolveOptions()
    cp, w = solver._control_form(p, x0)
    mu = p.scale.mu_values[:-1]
    core = solver._Core(cp)

    def evaluate(w):
        return core.derivatives(w, *core.consistent(w))

    def merit(h: np.ndarray) -> float:
        return max(float(np.max(np.abs((h[1:] - h[:-1]) / mu[:-1]))), abs(float(h[-1])))

    try:
        h, stages = evaluate(w)
    except solver._DOMAIN_ERRORS as exc:
        raise tv.SolveError(f"residuals undefined at the starting point: {exc}") from exc
    iters = 0
    while iters < opts.max_iterations and merit(h) >= opts.gradient_tolerance:
        d, _, cond = solver._riccati_step(stages, (mu * h).tolist(), 0.0)
        if d is None or cond > 1e15 or not np.all(np.isfinite(d)):
            raise tv.SingularJacobianError(
                f"singular Jacobian in Newton iteration (cond ~ {cond:.2e})"
            )
        base = merit(h)

        def decrease(trial, step):
            state = evaluate(trial)
            sup_n = merit(state[0])
            if sup_n < (1.0 - solver._ARMIJO * step) * base or sup_n < opts.gradient_tolerance:
                return state
            return None

        found = _reference_backtrack(w, d, decrease)
        if found is None:
            break
        iters += 1
        w, (h, stages) = found
    ok = bool(merit(h) < opts.gradient_tolerance)
    J, x, _ = core.value(w)
    return tv.Solution(
        problem=p, x=tv.GridFunction(p.scale, x), u=None, objective_value=J,
        converged=ok, iterations=iters,
        message="" if ok else "stationarity residual tolerance not reached",
    )
