"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import csv
import json
import math

import numpy as np

import tsvar as tv
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
    partials at every point; ``tv.recover_costate`` evaluates them once."""
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
    with the multipliers of ``tv.recover_costate``, one batch of the partials
    of ``g`` and of ``H = f + lam*g``, ``diff(H, "u")`` and the six
    ``diff(diff(H, a), b)``.  The solver evaluates partials of ``f`` and ``g``
    alone and combines them with the multipliers afterwards."""
    H = tv.expr.Binary("add", p.f, tv.expr.Binary("mul", tv.expr.Var("lam"), p.g))
    ts = p.scale
    mu = ts.mu_values[:-1]
    lam = tv.recover_costate(p, x, u, zeta)
    kernel = tv.problem.pointwise(
        *(tv.diff(p.g, a) for a in "xuz"), tv.diff(H, "u"),
        *(tv.diff(tv.diff(H, a), b) for a, b in ("xx", "xu", "xz", "uu", "uz", "zz")),
    )
    gx, gu, gz, hu, *w = kernel(tv.problem.terms(ts, x, u=u, lam=lam, z=zeta))
    alpha = 1.0 / (1.0 - mu * gx)
    return hu, [alpha, mu * gu * alpha, mu * gz * alpha, *(mu * wk for wk in w)]


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
    h, _ = solver._control_derivatives(cp)(x.delta_values, x.values, float(x.values[-1]))
    return h


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


# -- reference output writers ---------------------------------------------------
#
# The per-cell writers that ``tsvar solve`` used before it wrote a column at a
# time: ``json.dump(indent=2)`` over per-element ``float()`` lists, and one
# ``%.17g`` call per CSV cell.  The tests pin the current writers' bytes to these.


def _reference_fmt(v) -> str:
    if v is None or (isinstance(v, float) and math.isnan(v)):
        return ""
    return "%.17g" % v


def reference_solution_csv(path, sol, derived=None) -> None:
    lam, report = derived or sol.lam_and_report()
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


def reference_solution_json(path, sol, problem_type: str, derived=None) -> None:
    lam, report = derived or sol.lam_and_report()
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
