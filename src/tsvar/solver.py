"""Direct solvers for the free end-point problems, plus the exact oracle.

All three solvers work on the control problem.  A variational problem is
solved in its control form ``g = u`` (:meth:`ControlProblem.from_variational`),
whose controls are the slopes ``x_delta``; without a start they are zero, the
flat start ``x = alpha``.

The core reduces to the control samples: the state grid is rebuilt by
forward propagation, each step solved exactly for the sigma-shifted state
(a compensated running sum for ``g = u``, in closed form when ``g`` is
affine in ``x``, by scalar Newton otherwise), the end value is closed by a
secant solve (one propagation when ``g`` has no ``z``, three when it is
affine in ``z``), and the gradient ``mu h``, with ``h = f_u + lam g_u``,
comes from the discrete adjoint, whose multipliers are precisely the
sigma-shifted costate samples of the Hamiltonian system.  The exact reduced
Hessian is that of the Lagrangian over the linearized dynamics: stage ``i``
couples the state change at ``sigma(t_i)``, the control change and the
end-value change, so a backward Riccati sweep over the stages, with the end
value as one border, solves each Newton step in O(n) and reads the
Hessian's definiteness off the inertia of its pivots.  No solver forms an
n-by-n matrix.

All three run one Newton loop, :func:`_minimize`, with two policies:
``solve_control`` and ``solve_variational`` add a multiple of the identity
where the reduced Hessian is not positive definite and backtrack on the
objective (Armijo); ``solve_stationarity`` takes the unshifted steps and
backtracks on the sup norm of the residual system, ``(h_{i+1} - h_i) /
mu_i`` and ``h_{m-1}``.  A trial point where the state, objective or
costate cannot be evaluated shrinks the step.  The stopping rule is a
function of ``h``: ``solve_control`` stops on the stationarity residual
``h`` itself, and ``solve_variational`` on the gradient over the grid
values, ``h_i - h_{i+1}`` with ``h_m = 0``: graininess-scaled
Euler-Lagrange residuals and, last, exactly the transversality expression,
which emerges from the first variation through the ``z``-partial.

Every pointwise evaluation goes through the kernel of :mod:`tsvar.problem`,
one batch over all integrand terms, and every partial of ``f`` and ``g``
(the oracle's guards included) comes from :func:`tsvar.problem.partials`.
Each solve builds one :class:`_Core`, which builds every kernel once.  At
each Newton iterate one batch of the 18 partials gives the multipliers,
``h`` and the Hessian stages alike; :func:`recover_costate` evaluates only
the four first partials it reads.  The two true recurrences, the state
steps and the backward costate sweeps, run over plain floats; only a state
step whose ``g`` is not affine in ``x`` calls compiled ``g`` point by point.

A returned :class:`Solution` keeps its problem and grids; on each read,
:func:`residual_report` recomputes its multipliers and residual report from
them, as it makes the report of a ``tsvar verify`` candidate.
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
    variational_residuals,
)
from .errors import OracleError, SingularJacobianError, SolveError, TsvarError
from .problem import (
    ControlProblem, VariationalProblem, _is_zero, integrate_terms, objective, objective_control,
    partials, pointwise, terms,
)
from .timescale import GridFunction, TimeScale

__all__ = [
    "SolveOptions", "Solution", "SweepRow",
    "solve_variational", "solve_control", "solve_stationarity",
    "brute_force_oracle", "recover_costate", "residual_report", "sweep",
]

_DOMAIN_ERRORS = (ValueError, ZeroDivisionError, OverflowError)
_ARMIJO = 1e-4
_SINGULAR = 1e-13  # |1 - mu g_x| below this: the state or costate step has no unique solution
_NEWTON_STEPS = 50  # per implicit state step; Newton converges in a few
_CONSISTENCY_STEPS = 50  # secant steps of the end-value consistency solve
_CONSISTENCY_TOL = 1e-12  # relative end-value mismatch that closes it
_STEP_TOLERANCE = 1e-12  # a backtracking line search gives up below this step size


@dataclass(frozen=True)
class SolveOptions:
    max_iterations: int = 500
    gradient_tolerance: float = 1e-9

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not self.gradient_tolerance > 0.0:  # NaN too
            raise ValueError("gradient_tolerance must be positive")


@dataclass(frozen=True, eq=False, slots=True)
class Solution:
    """Solver output.

    The solve fixes the grids, ``objective_value``, ``verdict``,
    ``converged`` and ``iterations``.  :func:`residual_report` recomputes
    the multipliers ``lam`` and the residual report on every read, so a kept
    solution holds neither; read them once (both at once with
    :meth:`lam_and_report`) where they are needed more than once.
    """

    problem: VariationalProblem | ControlProblem
    x: GridFunction
    u: GridFunction | None
    objective_value: float
    verdict: SufficiencyVerdict
    converged: bool
    iterations: int
    message: str = ""

    @property
    def lam(self) -> GridFunction | None:
        """Sigma-shifted multiplier samples of a control solution, NaN at the
        maximum: :func:`recover_costate` at the returned grids with the end
        value ``x(T)``.  ``None`` for a variational solution."""
        return None if self.u is None else _multipliers(self.problem, self.x, self.u)

    def lam_and_report(self) -> tuple[GridFunction | None, ResidualReport]:
        """``lam`` and ``report`` from one recovery of the multipliers."""
        return residual_report(self.problem, self.x, self.u)

    @property
    def report(self) -> ResidualReport:
        """Residuals of the necessary conditions at the returned grids."""
        return self.lam_and_report()[1]

    @property
    def slope(self) -> float:
        """Mean slope ``(x(T) - x(a)) / (T - a)``."""
        ts = self.x.scale
        return float((self.x.values[-1] - self.x.values[0]) / (ts.b - ts.a))


# -- variational solves: the control form g = u ---------------------------------


def _grid(p: VariationalProblem, y: np.ndarray) -> GridFunction:
    return GridFunction(p.scale, np.concatenate(([p.alpha], y)))


def _control_form(p: VariationalProblem, x0: GridFunction | None):
    """The control form ``g = u`` of ``p`` and the starting controls: the
    slopes of ``x0`` with its first value replaced by ``alpha``, or zero,
    which is the flat start ``x = alpha``."""
    cp = ControlProblem.from_variational(p)
    if x0 is None:
        return cp, np.zeros(p.scale.n - 1)
    return cp, np.diff(np.concatenate(([p.alpha], x0.values[1:]))) / p.scale.mu_values[:-1]


def _gradient_sup(h: np.ndarray) -> float:
    """Sup of the gradient over ``x[1:]``: its coordinates are ``h_i - h_{i+1}``
    with ``h_m = 0``, graininess-scaled Euler-Lagrange residuals and, last,
    the transversality residual."""
    return max(float(np.max(np.abs(h[:-1] - h[1:]))), abs(float(h[-1])))


def _variational_solution(p, cp, x, J, ok, iters, message) -> Solution:
    return Solution(
        problem=p, x=GridFunction(p.scale, x), u=None,
        objective_value=J,
        verdict=sufficiency_check(cp),
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

    The problem is solved in its control form ``g = u``, whose controls are
    the slopes ``x_delta``, by :func:`_minimize` with the shifted steps and
    Armijo's test.  It stops when the sup of the gradient over the grid
    values, whose interior coordinates carry a factor ``mu``, is below
    ``gradient_tolerance``.  ``iterations`` counts Newton steps;
    ``on_accept`` sees each accepted iterate ``x[1:]`` and its objective value.
    """
    opts = opts or SolveOptions()
    cp, w = _control_form(p, x0)
    shown = None if on_accept is None else (lambda w, x, J: on_accept(x[1:].copy(), J))
    _, x, J, iters, ok = _minimize(cp, w, opts, _gradient_sup, _shifted_control_step, _armijo,
                                   shown)
    return _variational_solution(p, cp, x, J, ok, iters, "gradient tolerance not reached")


def solve_stationarity(
    p: VariationalProblem,
    opts: SolveOptions | None = None,
    x0: GridFunction | None = None,
) -> Solution:
    """Damped Newton iteration on the joint stationarity system.

    The system's rows are the interior Euler-Lagrange residuals
    ``(h_{i+1} - h_i) / mu_i`` and the transversality residual ``h_{m-1}``,
    with ``h = f_v + lam`` the stationarity residual of the control form
    ``g = u``; its sup norm is that of the residual report.  The loop is
    :func:`_minimize`'s, with the unshifted steps of :func:`_newton_step` and
    a line search that accepts a decrease of that sup norm.
    """
    opts = opts or SolveOptions()
    cp, w = _control_form(p, x0)
    mu = p.scale.mu_values[:-1]

    def merit(h: np.ndarray) -> float:
        return max(float(np.max(np.abs((h[1:] - h[:-1]) / mu[:-1]))), abs(float(h[-1])))

    def decrease(J, h, r, d, step, Jn, derivatives):
        state = derivatives()
        sup_n = merit(state[0])
        ok = sup_n < (1.0 - _ARMIJO * step) * merit(h) or sup_n < opts.gradient_tolerance
        return state if ok else None

    _, x, J, iters, ok = _minimize(cp, w, opts, merit, _newton_step, decrease, None)
    message = "stationarity residual tolerance not reached"
    return _variational_solution(p, cp, x, J, ok, iters, message)


# -- the Newton core: control problems ---------------------------------------


class _Core:
    """What the Newton core derives from a control problem, built once per solve.

    The state step (``pointwise(g, g_x)`` when ``g`` is affine in ``x``,
    compiled scalar ``g`` and ``g_x`` for the Newton step otherwise), whether
    ``g`` has ``z``, the cost ``pointwise(f)`` and ``partials``, the batch of
    :func:`tsvar.problem.partials`.  The methods only evaluate them.
    """

    def __init__(self, p: ControlProblem):
        self.p, self.ts, self.mu = p, p.scale, p.scale.mu_values[:-1]
        d = partials(p)
        gx, gz = d[3], d[5]
        self.roots = (ex.compile_fn(p.g), ex.compile_fn(gx)) if "x" in ex.variables(gx) else None
        self.affine = None if self.roots else pointwise(p.g, gx)
        self.coupled = not _is_zero(gz)
        self.cost = pointwise(p.f)
        self.partials = pointwise(*d)

    def state(self, u: np.ndarray, zeta: float) -> np.ndarray:
        """Forward state propagation, each step solved exactly for the shifted state.

        Step ``i`` solves ``x_{i+1} = x_i + mu_i g(t_i, x_{i+1}, u_i, zeta)``.
        When ``g`` is affine in ``x``, one kernel batch gives ``a = g(t, 0, u, z)``
        and ``b = g_x``, and the steps are the linear recurrence
        ``x_{i+1} = (x_i + mu_i a_i) / (1 - mu_i b_i)``; a step is singular where
        ``1 - mu_i b_i`` vanishes (the dynamics are not regressive there).
        Otherwise each step is a safeguarded scalar Newton solve.  A singular or
        failed step raises ``SolveError`` naming ``t``.
        """
        ts, mu = self.ts, self.mu
        if self.roots:
            x = [float(self.p.alpha)]
            for t, mu_i, ui in zip(ts.points[:-1].tolist(), mu.tolist(),
                                   np.asarray(u, dtype=float).tolist()):
                y = _newton_root(*self.roots, t, x[-1], mu_i, ui, zeta)
                if y is None:
                    raise SolveError(f"implicit state step found no solution at t = {t!r}")
                x.append(y)
            return np.array(x)
        a, b = self.affine(terms(ts, np.zeros(ts.n), u=u, z=zeta))
        denom = 1.0 - mu * b
        singular = np.flatnonzero(np.abs(denom) < _SINGULAR)
        if singular.size:
            t = float(ts.points[singular[0]])
            raise SolveError(f"implicit state step singular (1 - mu*g_x = 0) at t = {t!r}")
        return _recurrence(float(self.p.alpha), mu * a, denom)

    def consistent(self, u: np.ndarray) -> tuple[np.ndarray, float]:
        """Close the end value: find ``zeta`` with ``x(T; u, zeta) = zeta``.

        Dynamics without ``z`` need one propagation, whose end value is
        ``zeta``.  Otherwise secant iteration on the scalar mismatch runs from
        ``zeta = 0`` and ``1``; its first step solves an affine coupling exactly,
        in three propagations.
        """
        x = self.state(u, 0.0)
        if not self.coupled:
            return x, float(x[-1])
        za, fa = 0.0, float(x[-1])
        zb = 1.0
        x = self.state(u, zb)
        fb = float(x[-1] - zb)
        for _ in range(_CONSISTENCY_STEPS):
            if abs(fb) <= _CONSISTENCY_TOL * max(1.0, abs(zb)):
                return x, zb
            if fb == fa:
                raise SolveError("end-value consistency iteration stalled")
            za, fa, zb = zb, fb, zb - fb * (zb - za) / (fb - fa)
            x = self.state(u, zb)
            fb = float(x[-1] - zb)
        raise SolveError("end-value consistency did not converge")

    def value(self, u: np.ndarray) -> tuple[float, np.ndarray, float]:
        """``(J, x, zeta)``: the reduced objective with its consistent state."""
        x, zeta = self.consistent(u)
        return integrate_terms(self.ts, self.cost(terms(self.ts, x, u=u, z=zeta))[0]), x, zeta

    def derivatives(self, u: np.ndarray, x: np.ndarray, zeta: float) -> tuple[np.ndarray, list]:
        """``(h_u, stages)``: the stationarity residual and the stage data of
        the Newton step at a feasible iterate.

        The multipliers follow from the batch of ``partials`` by
        :func:`_costate`.  Then ``h_u = f_u + lam g_u``, which is the
        reduced gradient ``r = mu h_u`` with the graininess divided out, and,
        per stage ``i``, the linearized dynamics
        ``e_{i+1} = alpha_i e_i + beta_i du_i + gamma_i dz`` of
        ``x_{i+1} = x_i + mu_i g(t_i, x_{i+1}, u_i, z)`` and the entries
        ``xx, xu, xz, uu, uz, zz`` of ``W_i = mu_i (f'' + lam_i g'')``, the
        Hessian of the Hamiltonian over ``(x_{i+1}, u_i, z)``.  The stages are
        float lists for :func:`_riccati_step`.
        """
        ts, mu = self.ts, self.mu
        rows = self.partials(terms(ts, x, u=u, z=zeta))
        fx, fu, fz, gx, gu, gz = rows[:6]
        lam = _costate(ts, gx, fx, fz, gz)
        hu = fu + lam * gu
        w = mu * (rows[6:12] + lam * rows[12:])
        if not (np.isfinite(hu).all() and np.isfinite(w).all()):
            raise ValueError("a partial of the Hamiltonian is not finite")
        alpha = 1.0 / (1.0 - mu * gx)
        stages = (alpha, mu * gu * alpha, mu * gz * alpha, *w)
        return hu, [col.tolist() for col in stages]


def _recurrence(y0: float, steps: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """``y_{j+1} = (y_j + steps_j) / denom_j`` from ``y0``, over plain floats.

    Where every ``denom`` is 1 (``g_x = 0``, as for ``g = u``) it is a
    running sum, taken compensated: the exact rounding error of each
    addition (Knuth's TwoSum) is summed alongside and added back, so every
    ``y_j`` is within about one rounding of the exact sum.  A plain running
    sum drifts by up to ``j`` roundings, and through the end value that
    drift puts noise into the objective that stalls the Armijo test on long
    meshes.
    """
    if (denom == 1.0).all():
        y = np.cumsum(np.concatenate(([y0], steps)))
        head, tail = y[:-1], y[1:]
        part = tail - head
        y[1:] += np.cumsum((head - (tail - part)) + (steps - part))
        return y
    y = [y0]
    for step, d in zip(steps.tolist(), denom.tolist()):
        y.append((y[-1] + step) / d)
    return np.array(y)


def _newton_root(g, dg, t: float, xi: float, mu: float, ui: float, zeta: float) -> float | None:
    """Root of ``F(y) = y - xi - mu g(t, y, ui, zeta)``, or ``None``.

    Newton's method from ``y = xi``, the root that continues from ``mu = 0``.
    A step that does not reduce ``|F|``, or that leaves the domain of ``g``,
    is halved; the search fails when ``F'`` vanishes or the halving stalls.
    """
    y, r = xi, -mu * g(t, xi, 0.0, zeta, ui)
    for _ in range(_NEWTON_STEPS):
        slope = 1.0 - mu * dg(t, y, 0.0, zeta, ui)
        if slope == 0.0:
            return None
        step = r / slope
        if abs(step) <= 1e-13 * max(1.0, abs(y)):
            return y - step
        scale = 1.0
        while True:
            trial = y - scale * step
            try:
                rn = trial - xi - mu * g(t, trial, 0.0, zeta, ui)
            except _DOMAIN_ERRORS:
                rn = math.inf
            if abs(rn) < abs(r):
                break
            scale *= 0.5
            if scale < 1e-10:
                return None
        y, r = trial, rn
    return None


def recover_costate(
    p: ControlProblem, x: np.ndarray, u: np.ndarray, zeta: float
) -> np.ndarray:
    """Sigma-shifted multiplier samples solving the costate recurrence plus
    the transversality equation.

    One batch gives ``f_x, f_z, g_x, g_z`` at every point, and no other
    partial; :func:`_costate` solves for the multipliers.
    """
    d = partials(p)
    fx, fz, gx, gz = pointwise(d[0], d[2], d[3], d[5])(terms(p.scale, x, u=u, z=zeta))
    return _costate(p.scale, gx, fx, fz, gz)


def _multipliers(p: ControlProblem, x: GridFunction, u: GridFunction) -> GridFunction:
    """:func:`recover_costate` at the grids with the end value ``x(T)``, NaN at the maximum."""
    xv = x.values
    return GridFunction(x.scale, np.append(recover_costate(p, xv, u.values, float(xv[-1])), np.nan))


def residual_report(
    p: VariationalProblem | ControlProblem, x: GridFunction,
    u: GridFunction | None = None, lam: GridFunction | None = None,
) -> tuple[GridFunction | None, ResidualReport]:
    """The multipliers and the residuals of the necessary conditions of ``p``'s class.

    A variational problem gets ``(None, variational_residuals(p, x))``;
    ``u`` and ``lam`` are unread.  A control problem gets the Hamiltonian
    system at ``(x, u, lam)``, with ``lam`` recovered when it is ``None``.
    """
    if isinstance(p, VariationalProblem):
        return None, variational_residuals(p, x)
    if lam is None:
        lam = _multipliers(p, x, u)
    return lam, hamiltonian_residuals(p, x, u, lam)


def _costate(
    ts: TimeScale, gx: np.ndarray, fx: np.ndarray, fz: np.ndarray, gz: np.ndarray
) -> np.ndarray:
    """The multipliers from the partials at every term.

    The costate recurrence and the transversality equation are both affine
    in the multiplier, so two backward sweeps (end sample 0 and 1) over the
    same partials determine the exact solution.
    """
    mu = ts.mu_values[:-1]
    k = ts.n - 2
    denom = 1.0 - mu[:k] * gx[:k]
    singular = np.flatnonzero(np.abs(denom) < _SINGULAR)
    if singular.size:
        raise SolveError(
            f"costate recurrence singular at t = {float(ts.points[singular[-1]])!r}"
        )
    steps = mu[:k] * fx[:k]

    def sweep(lam_end: float) -> tuple[np.ndarray, float]:
        lam = _recurrence(lam_end, steps[::-1], denom[::-1])[::-1]
        rhs = mu[k] * (fx[k] + lam[k] * gx[k]) + math.fsum((mu * (fz + lam * gz)).tolist())
        return lam, rhs

    lam0, r0 = sweep(0.0)
    lam1, r1 = sweep(1.0)
    slope = r1 - r0
    if abs(1.0 - slope) < 1e-12:
        raise SolveError("multiplier transversality equation is degenerate")
    lam_end = r0 / (1.0 - slope)
    return lam0 + lam_end * (lam1 - lam0)


def _riccati_step(
    stages: list, r: list[float], tau: float
) -> tuple[np.ndarray | None, bool, float]:
    """Newton step of the reduced problem in ``u``, with ``tau I`` added to
    its Hessian, in O(n).

    The step minimizes ``sum r_i du_i + 1/2 s_i' W_i s_i`` over
    ``s_i = (e_{i+1}, du_i, dz)``, subject to the linearized dynamics from
    ``e_0 = 0`` and ``e_m = dz``; ``tau`` is added to every ``W_uu``.  A
    backward sweep carries the value function of ``e_i``: its quadratic
    coefficient ``P`` (the Riccati recursion, free of ``dz``), a linear
    coefficient ``a + b dz + c nu`` with ``nu`` the multiplier of
    ``e_m = dz``, and the terms in ``dz`` and ``nu`` alone (``A .. E``).  A
    2x2 solve gives ``(dz, nu)`` and a forward pass the controls.

    The sweep is a symmetric elimination of the KKT matrix, so its stage
    pivots and the two eigenvalues of the 2x2 matrix carry that matrix's
    inertia (Sylvester's law).  The multiplier ``nu`` accounts for exactly
    one negative eigenvalue, so the reduced Hessian is positive definite
    exactly when one of them, in all, is negative (Nocedal & Wright,
    *Numerical Optimization*, 2nd ed., section 16.1).  Returns the step,
    whether that Hessian is positive definite, and ``max |pivot| /
    min |pivot|`` over the stage pivots and the two eigenvalues.  The step
    is ``None`` at a zero or non-finite pivot, where the system is singular.
    """
    alpha, beta, gamma = stages[:3]
    P = a = b = A = B = C = D = E = 0.0
    c = 1.0
    lo, hi = math.inf, 0.0
    negative = 0
    # the feedback gains of du_i = -(ge_i e_i + gz_i dz + gn_i nu + g1_i), last stage first
    ge, gz, gn, g1 = [], [], [], []
    for al, be, ga, xx, xu, xz_i, uu, uz, zz, r_i in zip(*map(reversed, (*stages, r))):
        p = xx + P
        xz = xz_i + b
        pb = p * be + xu
        pivot = (pb + xu) * be + uu + tau
        size = abs(pivot)
        if not 0.0 < size < math.inf:
            return None, False, math.inf
        if pivot < 0.0:
            negative += 1
        if size < lo:
            lo = size
        if size > hi:
            hi = size
        ke = pb * al
        kz = pb * ga + be * xz + uz
        kn = be * c
        k1 = be * a + r_i
        he = ke / pivot
        hz = kz / pivot
        hn = kn / pivot
        h1 = k1 / pivot
        ge.append(he)
        gz.append(hz)
        gn.append(hn)
        g1.append(h1)
        A += (p * ga + 2.0 * xz) * ga + zz - kz * hz
        B += ga * c - kz * hn
        C -= kn * hn
        D += ga * a - kz * h1
        E -= kn * h1
        P = p * al * al - ke * he
        a, b, c = al * a - ke * h1, (p * ga + xz) * al - ke * hz, al * c - ke * hn
    # stationarity in (dz, nu) of 1/2 A dz^2 + B dz nu + 1/2 C nu^2 + D dz + E nu - nu dz
    s = B - 1.0
    det = A * C - s * s
    if not (det != 0.0 and math.isfinite(det)):
        return None, False, math.inf
    # a negative determinant means one negative eigenvalue, a positive one none or two
    negative += 1 if det < 0.0 else 0 if A + C > 0.0 else 2
    big = abs(0.5 * (A + C)) + math.hypot(0.5 * (A - C), s)
    cond = max(hi, big) / min(lo, abs(det) / big)
    dz = (s * E - C * D) / det
    nu = (s * D - A * E) / det
    e = 0.0
    du = []
    for he, hz, hn, h1, al, be, ga in zip(
        reversed(ge), reversed(gz), reversed(gn), reversed(g1), alpha, beta, gamma
    ):
        step = -(he * e + hz * dz + hn * nu + h1)
        du.append(step)
        e = al * e + be * step + ga * dz
    return np.array(du), negative == 1, cond


def _shifted_control_step(stages: list, r: np.ndarray) -> np.ndarray:
    """Newton direction of the reduced Hessian plus ``tau I``, with ``tau``
    grown from zero until it is positive definite (Nocedal & Wright,
    *Numerical Optimization*, Algorithm 3.3)."""
    wuu = stages[6]
    beta = 1e-3 * max(map(abs, wuu)) or 1e-3
    tau = 0.0
    rl = r.tolist()
    while math.isfinite(tau):
        d, definite, _ = _riccati_step(stages, rl, tau)
        if definite:
            return d
        tau = max(2.0 * tau, beta - min(wuu), beta)
    raise SolveError("no shift makes the reduced Hessian positive definite")


def _newton_step(stages: list, r: np.ndarray) -> np.ndarray:
    """The unshifted Newton step; ``SingularJacobianError`` naming ``cond`` at
    a zero pivot, a condition estimate above 1e15 or a non-finite step."""
    d, _, cond = _riccati_step(stages, r.tolist(), 0.0)
    if d is None or cond > 1e15 or not np.all(np.isfinite(d)):
        raise SingularJacobianError(f"singular Jacobian in Newton iteration (cond ~ {cond:.2e})")
    return d


def _armijo(J, hu, r, d, step, Jn, derivatives):
    """Armijo's test on the objective along ``d``; a trial that fails it
    evaluates no partials."""
    # the epsilon term keeps the test meaningful once the predicted
    # decrease drops below the rounding of J itself
    slack = 4.0 * np.finfo(float).eps * (1.0 + abs(J))
    return derivatives() if Jn <= J + _ARMIJO * step * float(r @ d) + slack else None


def _minimize(
    p: ControlProblem,
    w: np.ndarray,
    opts: SolveOptions,
    size: Callable[[np.ndarray], float],
    step_rule: Callable[[list, np.ndarray], np.ndarray],
    line_test: Callable,
    on_accept: Callable[[np.ndarray, np.ndarray, float], None] | None,
) -> tuple[np.ndarray, np.ndarray, float, int, bool]:
    """The one Newton loop, over the controls ``w`` of the reduced problem.

    The state and the end value follow from the controls, and the backward
    costate sweep makes the gradient ``r = mu hu``, with ``hu = f_u + lam
    g_u``, exact.  Two policies are arguments: each step is ``d =
    step_rule(stages, r)``, and the line search halves it from 1 until
    ``line_test(J, hu, r, d, step, Jn, derivatives)`` returns the trial's
    ``(hu, stages)``, got by calling ``derivatives()``, or ``None``.  A trial
    point whose state, objective or partials cannot be evaluated halves the
    step too; a step below ``_STEP_TOLERANCE`` ends the loop, as does
    ``size(hu)`` below ``gradient_tolerance``.  ``on_accept(w, x, J)`` sees
    each accepted iterate.  Returns the controls, the state, the objective
    value, the number of Newton steps and whether the stopping rule holds.
    """
    mu = p.scale.mu_values[:-1]
    core = _Core(p)
    try:
        J, x_arr, zeta = core.value(w)
    except _DOMAIN_ERRORS as exc:
        raise SolveError(f"objective undefined at the starting point: {exc}") from exc
    try:
        hu, stages = core.derivatives(w, x_arr, zeta)
    except _DOMAIN_ERRORS as exc:
        raise SolveError(f"residuals undefined at the starting point: {exc}") from exc
    iters = 0
    while size(hu) >= opts.gradient_tolerance and iters < opts.max_iterations:
        iters += 1
        r = mu * hu
        d = step_rule(stages, r)
        step = 1.0
        while step * np.max(np.abs(d)) >= _STEP_TOLERANCE:
            trial = w + step * d
            try:
                Jn, xn, zn = core.value(trial)
                found = line_test(J, hu, r, d, step, Jn, lambda: core.derivatives(trial, xn, zn))
            except (SolveError, *_DOMAIN_ERRORS):
                found = None
            if found is not None:
                break
            step *= 0.5
        else:
            break
        w, x_arr, J, (hu, stages) = trial, xn, Jn, found
        if on_accept is not None:
            on_accept(w, x_arr, J)
    return w, x_arr, J, iters, size(hu) < opts.gradient_tolerance


def _sup(h: np.ndarray) -> float:
    return float(np.max(np.abs(h)))


def solve_control(
    p: ControlProblem,
    opts: SolveOptions | None = None,
    u0: GridFunction | None = None,
    on_accept: Callable[[np.ndarray, float], None] | None = None,
) -> Solution:
    """Newton minimization over the shifted control samples: :func:`_minimize`
    with the shifted steps and Armijo's test.  It stops when the stationarity
    residual ``f_u + lam g_u`` is below ``gradient_tolerance``: of the
    report's families it is the one the iteration drives, the others hold by
    construction.  ``iterations`` counts Newton steps; ``on_accept`` sees
    each accepted iterate and its objective value.
    """
    opts = opts or SolveOptions()
    n = p.scale.n
    w = np.zeros(n - 1) if u0 is None else np.array(u0.values[: n - 1], dtype=float)
    shown = None if on_accept is None else (lambda w, x, J: on_accept(w.copy(), J))
    w, x_arr, J, iters, ok = _minimize(p, w, opts, _sup, _shifted_control_step, _armijo, shown)
    return Solution(
        problem=p, x=GridFunction(p.scale, x_arr), u=GridFunction(p.scale, np.append(w, np.nan)),
        objective_value=J, verdict=sufficiency_check(p),
        converged=ok, iterations=iters,
        message="" if ok else "gradient tolerance not reached",
    )


# -- brute-force oracle ---------------------------------------------------------


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


def _interpreted_variational(p: VariationalProblem):
    """The objective over the free values ``x[1:] = y``, each term valued by
    the interpreted walk of :func:`expr.evaluate`."""
    pts, mu = p.scale.points[:-1].tolist(), p.scale.mu_values[:-1].tolist()

    def value(y: np.ndarray) -> float:
        x = [float(p.alpha), *y.tolist()]
        return math.fsum(h * ex.evaluate(p.f, {"t": t, "x": b, "v": (b - a) / h, "z": x[-1]})
                         for t, h, a, b in zip(pts, mu, x, x[1:]))

    return value


def _interpreted_control(p: ControlProblem, gx: ex.Expr):
    """``(state, value)`` of a control problem whose ``g`` is affine in
    ``(x, u, z)`` with the slope ``gx`` in ``t`` alone, by the interpreted walk
    of :func:`expr.evaluate`: ``x_{i+1} = (x_i + mu_i g(t_i, 0, u_i, zeta)) /
    (1 - mu_i g_x(t_i))`` and the cost along it, over ``w = (u, zeta)``."""
    pts, mu = p.scale.points[:-1].tolist(), p.scale.mu_values[:-1].tolist()
    denom = [1.0 - h * ex.evaluate(gx, {"t": t}) for t, h in zip(pts, mu)]
    if min(map(abs, denom)) < _SINGULAR:
        raise OracleError("state step singular (1 - mu*g_x = 0)")

    def state(w: np.ndarray) -> list[float]:
        *u, zeta = w.tolist()
        x = [float(p.alpha)]
        for t, h, d, ui in zip(pts, mu, denom, u):
            x.append((x[-1] + h * ex.evaluate(p.g, {"t": t, "x": 0.0, "u": ui, "z": zeta})) / d)
        return x

    def value(w: np.ndarray) -> float:
        *u, zeta = w.tolist()
        return math.fsum(h * ex.evaluate(p.f, {"t": t, "x": xi, "u": ui, "z": zeta})
                         for t, h, xi, ui in zip(pts, mu, state(w)[1:], u))

    return state, value


def _oracle_variational(value, m: int) -> np.ndarray:
    A, b, _ = _polarize_quadratic(value, m)
    eig = np.linalg.eigvalsh(0.5 * (A + A.T))
    if eig[0] <= 1e-10 * max(1.0, abs(eig[-1])):
        raise OracleError("stationary system is not positive definite; no unique minimizer")
    return np.linalg.solve(A, -b)


def _oracle_control(state, value, m: int) -> np.ndarray:
    """The minimizing ``w = (u, zeta)`` under the end-value constraint
    ``x(T) = zeta``, by one KKT solve."""

    def constraint(w):
        return state(w)[-1] - float(w[-1])

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
    return sol[:m]


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
    eliminated directly.  Those values come from the interpreted walk of
    :func:`expr.evaluate`, with the oracle's own state propagation, so no
    compiled kernel and no solver code enter the solution.  Anything else
    needs ``allow_grid_search``, which values points as the solvers do.
    """
    if p.scale.n > 8:
        raise OracleError("oracle supports at most 8 scale points")
    if not isinstance(p, (VariationalProblem, ControlProblem)):
        raise OracleError(f"unsupported problem type {type(p).__name__}")
    variational = isinstance(p, VariationalProblem)
    # quadratic cost and affine dynamics in (x, u, z), on the control form
    d = partials(ControlProblem.from_variational(p) if variational else p)
    quad = all(ex.variables(e) <= {"t"} for e in d[6:12]) and all(map(_is_zero, d[12:]))
    if variational:
        if quad:
            value = _interpreted_variational(p)
            y = _oracle_variational(value, p.scale.n - 1)
        elif allow_grid_search:
            def value(w):
                return objective(p, _grid(p, w))

            y = _grid_search(value, p.scale.n - 1, box)
        else:
            raise OracleError("non-quadratic problem; pass allow_grid_search=True")
        return Solution(
            problem=p, x=_grid(p, y), u=None,
            objective_value=value(y),
            verdict=sufficiency_check(p),
            converged=True, iterations=0, message="oracle",
        )
    if quad:
        state, value = _interpreted_control(p, d[3])
        w = _oracle_control(state, value, p.scale.n)
        u, x, J = w[:-1], GridFunction(p.scale, np.array(state(w))), value(w)
    elif allow_grid_search:
        core = _Core(p)
        u = _grid_search(lambda v: core.value(v)[0], p.scale.n - 1, box)
        x = GridFunction(p.scale, core.consistent(u)[0])
        J = objective_control(p, x, GridFunction(p.scale, np.append(u, np.nan)))
    else:
        raise OracleError(
            "oracle needs a quadratic cost and affine dynamics; "
            "pass allow_grid_search=True otherwise"
        )
    return Solution(
        problem=p, x=x, u=GridFunction(p.scale, np.append(u, np.nan)),
        objective_value=J,
        verdict=sufficiency_check(p),
        converged=True, iterations=0, message="oracle",
    )


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
) -> list[SweepRow]:
    """One solve per parameter value, in input order, warm-starting each solve
    from the previous solution when it converged and the scales match.

    A row whose build or solve raises a ``TsvarError`` or a domain error is
    recorded as not converged, with the exception as its ``message``; a solve
    that returns unconverged gives its row the solution's ``message``.  Any
    other exception is a defect and propagates.  The row after a failed or
    unconverged one starts cold.
    """
    opts = opts or SolveOptions()
    rows: list[SweepRow] = []
    prev: Solution | None = None
    for val in values:
        try:
            prob = problem_factory(float(val))
            if isinstance(prob, ControlProblem):
                u0 = prev.u if (prev is not None and prev.u is not None
                                and prev.u.scale.matches(prob.scale)) else None
                sol = solve_control(prob, opts, u0=u0)
            else:
                x0 = prev.x if prev is not None and prev.x.scale.matches(prob.scale) else None
                sol = solve_variational(prob, opts, x0=x0)
        except (TsvarError, *_DOMAIN_ERRORS) as exc:
            rows.append(SweepRow(float(val), math.nan, math.nan, math.nan, False,
                                 f"{type(exc).__name__}: {exc}"))
            prev = None
            continue
        rows.append(
            SweepRow(float(val), sol.slope, float(sol.x.values[-1]),
                     sol.objective_value, sol.converged, sol.message)
        )
        prev = sol if sol.converged else None
    return rows
