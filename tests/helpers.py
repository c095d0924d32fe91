"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import math

import numpy as np

import tsvar as tv
from tsvar.solver import _ARMIJO, _DOMAIN_ERRORS


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


def dense_bfgs(value_and_grad, y0: np.ndarray, opts: tv.SolveOptions):
    """Reference BFGS that keeps the dense inverse Hessian and updates it in
    place; ``tsvar.solver._bfgs`` holds the same matrix in product form."""
    y = np.asarray(y0, dtype=float).copy()
    J, g = value_and_grad(y)
    m = y.size
    H = np.eye(m)
    scaled = False
    iters = 0
    for iters in range(1, opts.max_iterations + 1):
        if np.max(np.abs(g)) < opts.gradient_tolerance:
            return y, J, g, True, iters - 1
        d = -H @ g
        gd = float(g @ d)
        if gd >= 0.0:
            H = np.eye(m)
            d = -g
            gd = float(g @ d)
        step = 1.0
        accepted = False
        slack = 4.0 * np.finfo(float).eps * (1.0 + abs(J))
        while step * np.max(np.abs(d)) >= opts.step_tolerance:
            try:
                Jn, gn = value_and_grad(y + step * d)
            except _DOMAIN_ERRORS:
                step *= 0.5
                continue
            if Jn <= J + _ARMIJO * step * gd + slack:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        s = step * d
        yk = gn - g
        y = y + s
        J, g = Jn, gn
        sy = float(s @ yk)
        if sy > 1e-12 * (np.linalg.norm(s) * np.linalg.norm(yk) + 1e-300):
            if not scaled:
                H *= sy / float(yk @ yk)
                scaled = True
            Hy = H @ yk
            H += (
                np.outer(s, s) * ((sy + float(yk @ Hy)) / sy**2)
                - (np.outer(Hy, s) + np.outer(s, Hy)) / sy
            )
    return y, J, g, bool(np.max(np.abs(g)) < opts.gradient_tolerance), iters


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


def admissible_grid(rng: np.random.Generator, p: tv.VariationalProblem) -> tv.GridFunction:
    vals = rng.uniform(-1.5, 1.5, size=p.scale.n)
    vals[0] = p.alpha
    return tv.GridFunction(p.scale, vals)


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


def random_expr_and_env(rng: np.random.Generator, max_depth: int = 6):
    """A random expression and a point where it and its partials are tame.

    Rejection keeps evaluation inside safe domains and magnitudes bounded so
    finite differences stay meaningful.
    """
    while True:
        e = _random_tree(rng, int(rng.integers(2, max_depth + 1)))
        env = {name: float(rng.uniform(0.4, 1.6)) for name in _EXPR_VARS}
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
