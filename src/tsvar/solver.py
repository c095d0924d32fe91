"""Direct solvers for the free end-point problems, plus the exact oracle.

``solve_variational`` minimizes over the grid values with an analytic
gradient whose interior coordinates are scaled Euler-Lagrange residuals and
whose end coordinate is exactly the transversality expression: the first
variation couples every point into the free end value through the
``z``-partial, and the boundary condition emerges as a first-order condition
rather than being imposed.

Both variational solvers take Newton steps with the exact Hessian, built from
the symbolic second partials of the integrand.  Each integrand term touches
two neighbouring grid values and the end value, so the Hessian is
tridiagonal plus the end value's border, and each step is eliminated in
O(n): a Thomas sweep on the tridiagonal block, then a scalar Schur
complement.  ``solve_variational`` adds a multiple of the identity where the
Hessian is not positive definite and backtracks on the objective (Armijo);
it stops when the sup of the gradient, whose interior coordinates carry a
factor ``mu``, is below ``gradient_tolerance``.  ``solve_stationarity``
takes the unshifted steps and backtracks on the sup norm of the residual
system.  Neither forms an n-by-n matrix.

``solve_control`` reduces to the control samples: the state grid is rebuilt
by forward propagation (implicit in the sigma-shifted state), the end value
is closed by a scalar consistency solve (one propagation when ``g`` has no
``z``), and the gradient comes from the discrete adjoint, whose multipliers
are precisely the sigma-shifted costate samples of the Hamiltonian system.
It minimizes by BFGS with the inverse Hessian in product form: the accepted
update pairs, applied by the two-loop recursion, so memory and work per step
are O(n k) after ``k`` steps and no n-by-n matrix is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import expr as ex
from .conditions import (
    ResidualReport,
    SufficiencyVerdict,
    hamiltonian_residuals,
    sufficiency_check,
    sufficiency_check_variational,
    variational_residuals,
)
from .errors import OracleError, SingularJacobianError, SolveError, TsvarError
from .problem import ControlProblem, VariationalProblem, objective, objective_control
from .timescale import GridFunction

__all__ = [
    "SolveOptions", "Solution", "SweepRow",
    "solve_variational", "solve_control", "solve_stationarity",
    "brute_force_oracle", "recover_costate", "sweep",
]

_DOMAIN_ERRORS = (ValueError, ZeroDivisionError, OverflowError)
_ARMIJO = 1e-4


@dataclass(frozen=True)
class SolveOptions:
    max_iterations: int = 500
    gradient_tolerance: float = 1e-9
    step_tolerance: float = 1e-12
    seed: int = 0

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        for name in ("gradient_tolerance", "step_tolerance"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True, eq=False)
class Solution:
    """Solver output; the report is recomputed from the returned grids."""

    x: GridFunction
    u: GridFunction | None
    lam: GridFunction | None
    objective_value: float
    report: ResidualReport
    verdict: SufficiencyVerdict
    converged: bool
    iterations: int
    message: str = ""

    @property
    def slope(self) -> float:
        """Mean slope ``(x(T) - x(a)) / (T - a)``."""
        ts = self.x.scale
        return float((self.x.values[-1] - self.x.values[0]) / (ts.b - ts.a))


# -- quasi-Newton core -------------------------------------------------------


def _apply_inverse_hessian(
    pairs: list[tuple[np.ndarray, np.ndarray, float]], gamma: float, g: np.ndarray
) -> np.ndarray:
    """``H g`` for the BFGS inverse Hessian held as its update pairs.

    Two-loop recursion (Nocedal & Wright, *Numerical Optimization*,
    Algorithm 7.4) from ``H0 = gamma I`` over every pair ``(s, y, 1/s'y)``,
    oldest first: the same matrix as the dense update, in O(m k) work.
    """
    q = g.copy()
    alphas = []
    for s, yk, rho in reversed(pairs):
        a = rho * float(s @ q)
        q -= a * yk
        alphas.append(a)
    r = gamma * q
    for (s, yk, rho), a in zip(pairs, reversed(alphas)):
        r += (a - rho * float(yk @ r)) * s
    return r


def _bfgs(
    value_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
    y0: np.ndarray,
    opts: SolveOptions,
    on_accept: Callable[[np.ndarray, float], None] | None = None,
) -> tuple[np.ndarray, float, np.ndarray, bool, int]:
    """BFGS with Armijo backtracking (halving steps).

    The inverse Hessian is kept in product form, as the accepted step and
    gradient-change pairs; ``H0 = gamma I`` takes ``gamma = s'y / y'y`` from
    the first accepted pair.  Memory and work per step are O(m k) after
    ``k`` pairs; no m-by-m matrix is formed.  Domain errors during the line
    search shrink the step instead of failing; a domain error at the
    starting point is a hard error.
    """
    y = np.asarray(y0, dtype=float).copy()
    try:
        J, g = value_and_grad(y)
    except _DOMAIN_ERRORS as exc:
        raise SolveError(f"objective undefined at the starting point: {exc}") from exc
    pairs: list[tuple[np.ndarray, np.ndarray, float]] = []
    gamma = 1.0
    scaled = False
    iters = 0
    for iters in range(1, opts.max_iterations + 1):
        if np.max(np.abs(g)) < opts.gradient_tolerance:
            return y, J, g, True, iters - 1
        d = -_apply_inverse_hessian(pairs, gamma, g)
        gd = float(g @ d)
        if gd >= 0.0:  # H lost positive definiteness; restart from steepest descent
            pairs.clear()
            gamma = 1.0
            d = -g
            gd = float(g @ d)
        step = 1.0
        accepted = False
        # the epsilon term keeps the test meaningful once the predicted
        # decrease drops below the rounding of J itself
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
        if on_accept is not None:
            on_accept(y.copy(), Jn)
        J, g = Jn, gn
        sy = float(s @ yk)
        if sy > 1e-12 * (np.linalg.norm(s) * np.linalg.norm(yk) + 1e-300):
            if not scaled:
                gamma = sy / float(yk @ yk)
                scaled = True
            pairs.append((s, yk, 1.0 / sy))
    return y, J, g, bool(np.max(np.abs(g)) < opts.gradient_tolerance), iters


def _minimize_with_restarts(
    value_and_grad, y0, opts, on_accept=None, restarts: int = 2
):
    """BFGS, restarted from a perturbation of the best point while it has not
    converged.  Returns the best attempt, the iterations summed over every
    attempt that returned, and the number of restarts run."""
    y, J, g, ok, iters = _bfgs(value_and_grad, y0, opts, on_accept)
    best = (y, J, g, ok)
    total = iters
    rng = np.random.default_rng(opts.seed)
    attempt = 0
    while not best[3] and attempt < restarts:
        attempt += 1
        y1 = best[0] + 0.1 * (1.0 + np.abs(best[0])) * rng.standard_normal(best[0].size)
        try:
            y, J, g, ok, iters = _bfgs(value_and_grad, y1, opts, on_accept)
        except SolveError:
            continue
        total += iters
        if ok or J < best[1]:
            best = (y, J, g, ok)
    return (*best, total, attempt)


# -- variational solve: structured Newton --------------------------------------


@dataclass(frozen=True, eq=False)
class _Hessian:
    """Symmetric ``[[T, w], [w', corner]]`` over the free values ``x[1:]``.

    ``T`` (``diag`` and ``off``) couples neighbouring values ``x_1 .. x_{n-2}``;
    the border ``w`` and ``corner`` belong to the end value ``x_{n-1} = z``,
    which every integrand term sees.
    """

    diag: np.ndarray
    off: np.ndarray
    border: np.ndarray
    corner: float


def _term_kernel(e: ex.Expr):
    """``e`` at every integrand term ``(t_i, x_{i+1}, v_i, z)`` at once; a
    constant partial is broadcast without calls."""
    if isinstance(e, ex.Const):
        return lambda t, x, v, z: np.full(len(t), e.value)
    fn = ex.compile_fn(e)
    return lambda t, x, v, z: np.array([fn(*a, z) for a in zip(t, x, v)])


def _variational_newton(p: VariationalProblem):
    """Gradient and exact Hessian of the discrete objective over ``x[1:]``.

    Term ``i`` of ``sum mu_i f(t_i, x_{i+1}, (x_{i+1} - x_i) / mu_i, z)``
    touches only ``x_i``, ``x_{i+1}`` and ``z``, so the Hessian is tridiagonal
    plus the border of ``z``, built from the six second partials of ``f``.
    The gradient's end coordinate accumulates the ``z``-partial of every term,
    so it equals the transversality expression; interior coordinates are
    graininess-scaled Euler-Lagrange residuals.  Non-finite derivatives raise
    ``ValueError``, which the line searches treat as a domain error.
    """
    d1 = {a: ex.diff(p.f, a) for a in "xvz"}
    kernels = {a: _term_kernel(e) for a, e in d1.items()}
    for ab in ("xx", "xv", "xz", "vv", "vz", "zz"):
        kernels[ab] = _term_kernel(ex.diff(d1[ab[0]], ab[1]))
    ts = p.scale
    t = ts.points[:-1].tolist()
    mu = ts.mu_values[:-1]
    alpha = p.alpha

    def assemble(y: np.ndarray) -> tuple[np.ndarray, _Hessian]:
        v = np.diff(np.concatenate(([alpha], y))) / mu
        cols = (t, y.tolist(), v.tolist(), float(y[-1]))
        q = {key: kernel(*cols) for key, kernel in kernels.items()}
        grad = mu * q["x"] + q["v"]
        grad[:-1] -= q["v"][1:]
        grad[-1] += math.fsum(mu * q["z"])
        vv = q["vv"] / mu
        diag = mu * q["xx"] + 2.0 * q["xv"] + vv
        diag[:-1] += vv[1:]
        off = -q["xv"][1:] - vv[1:]
        border = mu * q["xz"] + q["vz"]
        border[:-1] -= q["vz"][1:]
        corner = diag[-1] + 2.0 * border[-1] + math.fsum(mu * q["zz"])
        # the last tridiagonal coupling links x_{n-2} to z, so it joins the border
        border[-2] += off[-1]
        if not (np.all(np.isfinite(grad)) and np.all(np.isfinite(diag))
                and np.all(np.isfinite(border)) and math.isfinite(corner)):
            raise ValueError("non-finite derivative of the integrand")
        return grad, _Hessian(diag[:-1], off[:-1], border[:-1], corner)

    return assemble


def _eliminate(
    h: _Hessian, r: np.ndarray, tau: float = 0.0, positive: bool = False
) -> tuple[np.ndarray | None, list[float]]:
    """Solve ``(H + tau I) d = r`` in O(n).

    A Thomas sweep (LDL' without pivoting) on the tridiagonal block takes the
    head of ``r`` and the border as two right-hand sides; a scalar Schur
    complement then gives the end value.  Returns ``d`` and the pivots: those
    of the sweep followed by the Schur complement.  The elimination stops at
    the first zero pivot, or with ``positive`` at the first one that is not
    positive, and ``d`` is then ``None``.
    """
    bad = (lambda s: not s > 0.0) if positive else (lambda s: s == 0.0)
    diag = (h.diag + tau).tolist()
    off = h.off.tolist()
    r_head = r[:-1].tolist()
    w = h.border.tolist()
    k = len(diag)
    pivots = [diag[0]]
    fr, fw = [r_head[0]], [w[0]]
    if bad(pivots[0]):
        return None, pivots
    for j in range(1, k):
        low = off[j - 1] / pivots[-1]
        pivots.append(diag[j] - low * off[j - 1])
        if bad(pivots[-1]):
            return None, pivots
        fr.append(r_head[j] - low * fr[-1])
        fw.append(w[j] - low * fw[-1])
    a = b = 0.0
    for j in range(k - 1, -1, -1):
        up = off[j] if j < k - 1 else 0.0
        a = fr[j] = (fr[j] - up * a) / pivots[j]
        b = fw[j] = (fw[j] - up * b) / pivots[j]
    head, border = np.array(fr), np.array(fw)  # T^{-1} r_head and T^{-1} w
    schur = h.corner + tau - float(h.border @ border)
    pivots.append(schur)
    if bad(schur):
        return None, pivots
    dz = (float(r[-1]) - float(h.border @ head)) / schur
    return np.append(head - dz * border, dz), pivots


def _shifted_newton_step(h: _Hessian, g: np.ndarray) -> np.ndarray:
    """Newton direction of ``H + tau I`` with ``tau`` grown from zero until
    the elimination's pivots are positive (Nocedal & Wright, *Numerical
    Optimization*, Algorithm 3.3)."""
    diag_min = min(float(np.min(h.diag)), h.corner)
    beta = 1e-3 * max(float(np.max(np.abs(h.diag))), abs(h.corner)) or 1e-3
    tau = 0.0 if diag_min > 0.0 else beta - diag_min
    while True:
        d, _ = _eliminate(h, -g, tau, positive=True)
        if d is not None:
            return d
        tau = max(2.0 * tau, beta)


def _backtrack(y: np.ndarray, d: np.ndarray, opts: SolveOptions, try_step):
    """Halve the step from 1 until ``try_step(trial, step)`` returns a state.

    Domain errors at a trial point shrink the step instead of failing.
    Returns ``(trial, state)``, or ``None`` once the step is below
    ``step_tolerance``.
    """
    step = 1.0
    while step * np.max(np.abs(d)) >= opts.step_tolerance:
        trial = y + step * d
        try:
            state = try_step(trial, step)
        except _DOMAIN_ERRORS:
            state = None
        if state is not None:
            return trial, state
        step *= 0.5
    return None


def _grid(p: VariationalProblem, y: np.ndarray) -> GridFunction:
    return GridFunction(p.scale, np.concatenate(([p.alpha], y)))


def _start(p: VariationalProblem, x0: GridFunction | None) -> np.ndarray:
    if x0 is None:
        return np.full(p.scale.n - 1, p.alpha)
    return np.array(x0.values[1:], dtype=float)


def _variational_value_and_grad(p: VariationalProblem):
    """Objective and gradient over the free values ``x[1:]``."""
    assemble = _variational_newton(p)
    return lambda y: (objective(p, _grid(p, y)), assemble(y)[0])


def _variational_solution(p, y, opts, ok, iters, message) -> Solution:
    x = _grid(p, y)
    return Solution(
        x=x, u=None, lam=None,
        objective_value=objective(p, x),
        report=variational_residuals(p, x),
        verdict=sufficiency_check_variational(p, seed=opts.seed),
        converged=ok, iterations=iters,
        message="" if ok else message,
    )


def solve_variational(
    p: VariationalProblem,
    opts: SolveOptions | None = None,
    x0: GridFunction | None = None,
    on_accept: Callable[[np.ndarray, float], None] | None = None,
) -> Solution:
    """Newton minimization over all grid values except the fixed initial one.

    Each step solves with the exact bordered-tridiagonal Hessian, shifted
    where it is not positive definite, and backtracks until the Armijo
    condition holds.  ``iterations`` counts Newton steps; ``on_accept`` sees
    each accepted iterate and its objective value.
    """
    opts = opts or SolveOptions()
    y = _start(p, x0)
    assemble = _variational_newton(p)
    try:
        J = objective(p, _grid(p, y))
        g, h = assemble(y)
    except _DOMAIN_ERRORS as exc:
        raise SolveError(f"objective undefined at the starting point: {exc}") from exc
    iters = 0
    while np.max(np.abs(g)) >= opts.gradient_tolerance and iters < opts.max_iterations:
        iters += 1
        d = _shifted_newton_step(h, g)
        gd = float(g @ d)
        # the epsilon term keeps the test meaningful once the predicted
        # decrease drops below the rounding of J itself
        slack = 4.0 * np.finfo(float).eps * (1.0 + abs(J))

        def armijo(trial, step):
            Jn = objective(p, _grid(p, trial))
            if not Jn <= J + _ARMIJO * step * gd + slack:
                return None
            return (Jn, *assemble(trial))

        found = _backtrack(y, d, opts, armijo)
        if found is None:
            break
        y, (J, g, h) = found
        if on_accept is not None:
            on_accept(y.copy(), J)
    ok = bool(np.max(np.abs(g)) < opts.gradient_tolerance)
    return _variational_solution(p, y, opts, ok, iters, "gradient tolerance not reached")


def solve_stationarity(
    p: VariationalProblem,
    opts: SolveOptions | None = None,
    x0: GridFunction | None = None,
) -> Solution:
    """Damped Newton iteration on the joint stationarity system.

    The system's rows are the interior Euler-Lagrange residuals and the
    transversality residual: the gradient of :func:`solve_variational` with
    its interior coordinates divided by ``-mu``.  Steps use the same Hessian
    and elimination, unshifted, and backtrack on the sup norm of the rows.
    """
    opts = opts or SolveOptions()
    y = _start(p, x0)
    assemble = _variational_newton(p)
    rows = np.append(-p.scale.mu_values[:-2], 1.0)

    def merit(g: np.ndarray) -> float:
        return float(np.max(np.abs(g / rows)))

    try:
        g, h = assemble(y)
    except _DOMAIN_ERRORS as exc:
        raise SolveError(f"residuals undefined at the starting point: {exc}") from exc
    iters = 0
    while iters < opts.max_iterations and merit(g) >= opts.gradient_tolerance:
        iters += 1
        d, pivots = _eliminate(h, -g)
        size = np.abs(pivots)
        cond = math.inf if size.min() == 0.0 else float(size.max() / size.min())
        if d is None or cond > 1e15 or not np.all(np.isfinite(d)):
            raise SingularJacobianError(
                f"singular Jacobian in Newton iteration (cond ~ {cond:.2e})"
            )
        base = merit(g)

        def decrease(trial, step):
            gn, hn = assemble(trial)
            sup_n = merit(gn)
            if sup_n < (1.0 - _ARMIJO * step) * base or sup_n < opts.gradient_tolerance:
                return gn, hn
            return None

        found = _backtrack(y, d, opts, decrease)
        if found is None:
            break
        y, (g, h) = found
    ok = bool(merit(g) < opts.gradient_tolerance)
    return _variational_solution(
        p, y, opts, ok, iters, "stationarity residual tolerance not reached"
    )


# -- control solve -------------------------------------------------------------


def _propagate_state(
    p: ControlProblem, u: np.ndarray, zeta: float, *, max_iter: int = 50, tol: float = 1e-12
) -> np.ndarray:
    """Forward state propagation; each step is implicit in the shifted state."""
    g = ex.compile_fn(p.g)
    gx = ex.diff(p.g, "x")
    explicit = isinstance(gx, ex.Const) and gx.value == 0.0
    ts = p.scale
    pts, mu = ts.points, ts.mu_values
    n = ts.n
    x = np.empty(n)
    x[0] = p.alpha
    for i in range(n - 1):
        if explicit:
            x[i + 1] = x[i] + mu[i] * g(pts[i], 0.0, 0.0, zeta, u[i])
            continue
        xi1 = x[i]
        for _ in range(max_iter):
            new = x[i] + mu[i] * g(pts[i], xi1, 0.0, zeta, u[i])
            if abs(new - xi1) <= tol * max(1.0, abs(new)):
                xi1 = new
                break
            xi1 = new
        else:
            raise SolveError(
                f"implicit state step did not converge at t = {float(pts[i])!r}"
            )
        x[i + 1] = xi1
    return x


def _consistent_state(
    p: ControlProblem, u: np.ndarray, *, max_outer: int = 50, tol: float = 1e-12
) -> tuple[np.ndarray, float]:
    """Close the end value: find ``zeta`` with ``x(T; u, zeta) = zeta``.

    Dynamics without ``z`` need one propagation, whose end value is
    ``zeta``.  Otherwise an affine probe solves linear couplings in one shot,
    and secant iteration on the scalar mismatch handles the rest.
    """
    x0 = _propagate_state(p, u, 0.0)
    gz = ex.diff(p.g, "z")
    if isinstance(gz, ex.Const) and gz.value == 0.0:
        return x0, float(x0[-1])
    x1 = _propagate_state(p, u, 1.0)
    q = x1[-1] - x0[-1]
    if abs(1.0 - q) > 1e-13:
        zeta = x0[-1] / (1.0 - q)
        x = _propagate_state(p, u, zeta)
        if abs(x[-1] - zeta) <= tol * max(1.0, abs(zeta)):
            return x, float(zeta)
        za, fa = 1.0, float(x1[-1] - 1.0)
        zb, fb = float(zeta), float(x[-1] - zeta)
    else:
        za, fa = 0.0, float(x0[-1])
        zb, fb = 1.0, float(x1[-1] - 1.0)
        x = x1
    # secant iteration for end-value couplings that are not affine
    for _ in range(max_outer):
        if abs(fb) <= tol * max(1.0, abs(zb)):
            return x, zb
        if fb == fa:
            raise SolveError("end-value consistency iteration stalled")
        zn = zb - fb * (zb - za) / (fb - fa)
        za, fa = zb, fb
        zb = zn
        x = _propagate_state(p, u, zb)
        fb = x[-1] - zb
    raise SolveError("end-value consistency did not converge")


def recover_costate(
    p: ControlProblem, x: np.ndarray, u: np.ndarray, zeta: float
) -> np.ndarray:
    """Sigma-shifted multiplier samples solving the costate recurrence plus
    the transversality equation.

    Both are affine in the multiplier, so two backward sweeps (end sample 0
    and 1) over the same partials ``f_x, g_x, f_z, g_z``, evaluated once per
    point, determine the exact solution.
    """
    ts = p.scale
    pts, mu = ts.points, ts.mu_values
    n = ts.n
    k = n - 2
    args = [(pts[i], x[i + 1], 0.0, zeta, u[i]) for i in range(n - 1)]

    def at_points(e: ex.Expr, name: str) -> list[float]:
        fn = ex.compile_fn(ex.diff(e, name))
        return [fn(*a) for a in args]

    gx = at_points(p.g, "x")
    denom = [1.0 - mu[i] * gx[i] for i in range(k)]
    for i in range(k - 1, -1, -1):
        if abs(denom[i]) < 1e-13:
            raise SolveError(f"costate recurrence singular at t = {float(pts[i])!r}")
    fx, fz, gz = at_points(p.f, "x"), at_points(p.f, "z"), at_points(p.g, "z")

    def sweep(lam_end: float) -> tuple[np.ndarray, float]:
        lam = np.empty(n - 1)
        lam[k] = lam_end
        for i in range(k - 1, -1, -1):
            lam[i] = (lam[i + 1] + mu[i] * fx[i]) / denom[i]
        rhs = mu[k] * (fx[k] + lam[k] * gx[k]) + math.fsum(
            mu[i] * (fz[i] + lam[i] * gz[i]) for i in range(n - 1)
        )
        return lam, rhs

    lam0, r0 = sweep(0.0)
    lam1, r1 = sweep(1.0)
    slope = r1 - r0
    if abs(1.0 - slope) < 1e-12:
        raise SolveError("multiplier transversality equation is degenerate")
    lam_end = r0 / (1.0 - slope)
    return lam0 + lam_end * (lam1 - lam0)


def _control_value_and_grad(p: ControlProblem):
    f = ex.compile_fn(p.f)
    fu = ex.compile_fn(ex.diff(p.f, "u"))
    gu = ex.compile_fn(ex.diff(p.g, "u"))
    ts = p.scale
    pts, mu = ts.points, ts.mu_values
    n = ts.n

    def value_and_grad(u: np.ndarray) -> tuple[float, np.ndarray]:
        x, zeta = _consistent_state(p, u)
        J = math.fsum(
            mu[i] * f(pts[i], x[i + 1], 0.0, zeta, u[i]) for i in range(n - 1)
        )
        lam = recover_costate(p, x, u, zeta)
        grad = np.empty(n - 1)
        for i in range(n - 1):
            args = (pts[i], x[i + 1], 0.0, zeta, u[i])
            grad[i] = mu[i] * (fu(*args) + lam[i] * gu(*args))
        return J, grad

    return value_and_grad


def solve_control(
    p: ControlProblem,
    opts: SolveOptions | None = None,
    u0: GridFunction | None = None,
    on_accept: Callable[[np.ndarray, float], None] | None = None,
) -> Solution:
    """Reduced-space minimization over the shifted control samples.

    The multiplier recursion used for the gradient is the discrete adjoint of
    the propagated state including its end-value coupling, so the vanishing
    gradient is exactly the Hamiltonian stationarity condition.  An attempt
    that does not converge is restarted from a perturbed point up to twice;
    ``iterations`` counts the steps of every attempt.
    """
    opts = opts or SolveOptions()
    n = p.scale.n
    if u0 is None:
        w0 = np.zeros(n - 1)
    else:
        w0 = np.asarray(u0.values[: n - 1], dtype=float)
    fun = _control_value_and_grad(p)
    w, J, g, ok, iters, restarts = _minimize_with_restarts(fun, w0, opts, on_accept)
    x_arr, zeta = _consistent_state(p, w)
    lam_arr = recover_costate(p, x_arr, w, zeta)
    x = GridFunction(p.scale, x_arr)
    u = GridFunction(p.scale, np.append(w, np.nan))
    lam = GridFunction(p.scale, np.append(lam_arr, np.nan))
    return Solution(
        x=x, u=u, lam=lam,
        objective_value=objective_control(p, x, u),
        report=hamiltonian_residuals(p, x, u, lam),
        verdict=sufficiency_check(p, seed=opts.seed),
        converged=ok, iterations=iters,
        message="" if ok else f"gradient tolerance not reached after {restarts} restarts",
    )


# -- brute-force oracle ---------------------------------------------------------


def _is_quadratic(e: ex.Expr, names: tuple[str, ...]) -> bool:
    """All second partials over ``names`` are functions of ``t`` alone."""
    for a in names:
        for b in names:
            dd = ex.diff(ex.diff(e, a), b)
            if ex.variables(dd) - {"t"}:
                return False
    return True


def _polarize_quadratic(fun, m: int):
    """Exact quadratic model ``1/2 w'Aw + b'w + c`` from function values."""
    c = fun(np.zeros(m))
    A = np.empty((m, m))
    b = np.empty(m)
    plus = np.empty(m)
    for i in range(m):
        e = np.zeros(m)
        e[i] = 1.0
        plus[i] = fun(e)
        minus = fun(-e)
        b[i] = 0.5 * (plus[i] - minus)
        A[i, i] = plus[i] + minus - 2.0 * c
    for i in range(m):
        for j in range(i + 1, m):
            e = np.zeros(m)
            e[i] = 1.0
            e[j] = 1.0
            A[i, j] = A[j, i] = fun(e) - plus[i] - plus[j] + c
    return A, b, c


def _oracle_variational(p: VariationalProblem) -> np.ndarray:
    A, b, _ = _polarize_quadratic(lambda y: objective(p, _grid(p, y)), p.scale.n - 1)
    eig = np.linalg.eigvalsh(0.5 * (A + A.T))
    if eig[0] <= 1e-10 * max(1.0, abs(eig[-1])):
        raise OracleError("stationary system is not positive definite; no unique minimizer")
    return np.linalg.solve(A, -b)


def _oracle_control(p: ControlProblem) -> tuple[np.ndarray, float]:
    m = p.scale.n  # controls plus the end value
    f = ex.compile_fn(p.f)
    pts, mu = p.scale.points, p.scale.mu_values

    def value(w):
        u, zeta = w[:-1], float(w[-1])
        x = _propagate_state(p, u, zeta)
        return math.fsum(
            mu[i] * f(pts[i], x[i + 1], 0.0, zeta, u[i]) for i in range(p.scale.n - 1)
        )

    def constraint(w):
        u, zeta = w[:-1], float(w[-1])
        x = _propagate_state(p, u, zeta)
        return x[-1] - zeta

    A, b, _ = _polarize_quadratic(value, m)
    c0 = constraint(np.zeros(m))
    a = np.empty(m)
    for i in range(m):
        e = np.zeros(m)
        e[i] = 1.0
        a[i] = constraint(e) - c0
    kkt = np.zeros((m + 1, m + 1))
    kkt[:m, :m] = A
    kkt[:m, m] = a
    kkt[m, :m] = a
    rhs = np.concatenate((-b, [-c0]))
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError as exc:
        raise OracleError("degenerate stationarity system") from exc
    return sol[: m - 1], float(sol[m - 1])


def _grid_search(value, m: int, box: tuple[float, float]) -> np.ndarray:
    """Nested refinement search; slow, for small non-quadratic problems."""
    lo = np.full(m, box[0])
    hi = np.full(m, box[1])
    pts_per_dim = 5
    best = None
    while np.max(hi - lo) > 1e-6:
        axes = [np.linspace(lo[d], hi[d], pts_per_dim) for d in range(m)]
        grids = np.meshgrid(*axes, indexing="ij")
        coords = np.stack([g.ravel() for g in grids], axis=1)
        vals = np.array([value(w) for w in coords])
        best = coords[int(np.argmin(vals))]
        width = (hi - lo) * 0.25
        lo = best - width
        hi = best + width
    return best


def brute_force_oracle(
    p: VariationalProblem | ControlProblem,
    *,
    allow_grid_search: bool = False,
    box: tuple[float, float] = (-4.0, 4.0),
) -> Solution:
    """Independent reference solve for small problems.

    Quadratic problems (total degree at most two in the state/control/end
    variables) are solved exactly: the objective is recovered by polarization
    from function values alone and the linear stationarity (or KKT) system is
    eliminated directly.  Anything else needs ``allow_grid_search``.
    """
    if p.scale.n > 8:
        raise OracleError("oracle supports at most 8 scale points")
    if isinstance(p, VariationalProblem):
        quad = _is_quadratic(p.f, ("x", "v", "z"))
        if quad:
            y = _oracle_variational(p)
        elif allow_grid_search:
            y = _grid_search(lambda w: objective(p, _grid(p, w)), p.scale.n - 1, box)
        else:
            raise OracleError("non-quadratic problem; pass allow_grid_search=True")
        x = _grid(p, y)
        return Solution(
            x=x, u=None, lam=None,
            objective_value=objective(p, x),
            report=variational_residuals(p, x),
            verdict=sufficiency_check_variational(p),
            converged=True, iterations=0, message="oracle",
        )
    if not isinstance(p, ControlProblem):
        raise OracleError(f"unsupported problem type {type(p).__name__}")
    quad = _is_quadratic(p.f, ("x", "u", "z")) and _is_affine_dynamics(p)
    if quad:
        w, zeta = _oracle_control(p)
    elif allow_grid_search:
        fun = _control_value_and_grad(p)
        w = _grid_search(lambda v: fun(v)[0], p.scale.n - 1, box)
        _, zeta = _consistent_state(p, w)
    else:
        raise OracleError(
            "oracle needs a quadratic cost and affine dynamics; "
            "pass allow_grid_search=True otherwise"
        )
    x_arr = _propagate_state(p, w, zeta)
    lam_arr = recover_costate(p, x_arr, w, zeta)
    x = GridFunction(p.scale, x_arr)
    u = GridFunction(p.scale, np.append(w, np.nan))
    lam = GridFunction(p.scale, np.append(lam_arr, np.nan))
    return Solution(
        x=x, u=u, lam=lam,
        objective_value=objective_control(p, x, u),
        report=hamiltonian_residuals(p, x, u, lam),
        verdict=sufficiency_check(p),
        converged=True, iterations=0, message="oracle",
    )


def _is_affine_dynamics(p: ControlProblem) -> bool:
    for a in ("x", "u", "z"):
        for b in ("x", "u", "z"):
            dd = ex.diff(ex.diff(p.g, a), b)
            if not (isinstance(dd, ex.Const) and dd.value == 0.0):
                return False
    return True


# -- parameter sweep -------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    value: float
    slope: float
    endpoint: float
    objective: float
    converged: bool
    message: str = ""


def sweep(
    problem_factory: Callable[[float], VariationalProblem | ControlProblem],
    values: Sequence[float],
    opts: SolveOptions | None = None,
    warm_start: bool = True,
) -> list[SweepRow]:
    """One solve per parameter value, in input order, warm-starting each solve
    from the previous solution when the scales match.

    A row whose build or solve raises a ``TsvarError`` or a domain error is
    recorded as not converged, with the exception as its ``message``; any
    other exception is a defect and propagates.
    """
    opts = opts or SolveOptions()
    rows: list[SweepRow] = []
    prev: Solution | None = None
    for val in values:
        try:
            prob = problem_factory(float(val))
            if isinstance(prob, ControlProblem):
                u0 = prev.u if (warm_start and prev is not None and prev.u is not None
                                and prev.u.scale.matches(prob.scale)) else None
                sol = solve_control(prob, opts, u0=u0)
            else:
                x0 = prev.x if (warm_start and prev is not None
                                and prev.x.scale.matches(prob.scale)) else None
                sol = solve_variational(prob, opts, x0=x0)
        except (TsvarError, *_DOMAIN_ERRORS) as exc:
            rows.append(SweepRow(float(val), math.nan, math.nan, math.nan, False,
                                 f"{type(exc).__name__}: {exc}"))
            prev = None
            continue
        rows.append(
            SweepRow(float(val), sol.slope, float(sol.x.values[-1]),
                     sol.objective_value, sol.converged)
        )
        prev = sol
    return rows
