"""Free end-point variational and optimal-control problems on a time scale.

Both problem classes fix the initial value ``x(a) = alpha`` and leave the end
value ``x(T)`` free; the integrand may depend on that free end value through
the ``z`` variable.  The integrand is always evaluated at the sigma-shifted
state, ``f(t, x(sigma(t)), x_delta(t), x(T))``, exactly as the delta-integral
objective dictates; modelling against the left state value is an off-by-one
error on discrete scales.

Every pointwise evaluation in the package goes through one kernel here:
:func:`terms` lays out the integrand terms ``i = 0 .. n-2`` as numpy
columns, :func:`pointwise` evaluates expressions on all of them at once, and
:func:`integrate_terms` sums graininess-weighted term values exactly.  Every
partial of either problem class comes from :func:`partials`; a variational
problem is evaluated only as its control form ``g = u`` at the slopes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Callable

import numpy as np

from . import expr as ex
from .errors import AdmissibilityError, DynamicsViolationError, EvalError
from .timescale import GridFunction, TimeScale, require_same_scale

if TYPE_CHECKING:
    from .conditions import SufficiencyVerdict

__all__ = [
    "VariationalProblem", "ControlProblem", "objective", "objective_control", "norm1",
    "terms", "pointwise", "integrate_terms", "partials",
]

_INIT_RTOL = 1e-12
_DYNAMICS_ATOL = 1e-9  # dynamics residual ``objective_control`` allows, plus mu where dense
_DYNAMICS_ROUNDING = 4.0 * np.finfo(float).eps  # times (|x_i| + |x_{i+1}|) / mu_i, also allowed


@dataclass(frozen=True, eq=False, slots=True)
class VariationalProblem:
    """Minimize the delta integral of ``f(t, x, v, z)`` over ``[a, T)``.

    ``x`` is the sigma-shifted state, ``v`` its delta derivative and ``z``
    the free end value ``x(T)``.
    """

    scale: TimeScale
    f: ex.Expr
    alpha: float
    # set once, by the first ``sufficiency_check`` of this object
    _verdict: SufficiencyVerdict | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.scale.n < 3:
            raise ValueError("variational problems need at least three scale points")
        if not math.isfinite(self.alpha):
            raise ValueError("alpha must be finite")
        bad = ex.variables(self.f) - {"t", "x", "v", "z"}
        if bad:
            raise ValueError(f"integrand may only use t, x, v, z; found {sorted(bad)}")


@dataclass(frozen=True, eq=False, slots=True)
class ControlProblem:
    """Minimize the delta integral of ``f(t, x, u, z)`` subject to dynamics ``g``.

    The state satisfies ``x_delta(t) = g(t, x(sigma(t)), u(sigma(t)), x(T))``;
    choosing ``g = u`` recovers the variational problem.  Control grids store
    sigma-shifted samples: ``u.values[i]`` is ``u(sigma(t_i))``.
    """

    scale: TimeScale
    f: ex.Expr
    g: ex.Expr
    alpha: float
    # set once, by the first ``sufficiency_check`` of this object
    _verdict: SufficiencyVerdict | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.scale.n < 3:
            raise ValueError("control problems need at least three scale points")
        if not math.isfinite(self.alpha):
            raise ValueError("alpha must be finite")
        for name, e in (("running cost", self.f), ("dynamics", self.g)):
            bad = ex.variables(e) - {"t", "x", "u", "z"}
            if bad:
                raise ValueError(f"{name} may only use t, x, u, z; found {sorted(bad)}")

    @classmethod
    @lru_cache(maxsize=1)
    def from_variational(cls, p: VariationalProblem) -> "ControlProblem":
        """Equivalent control form: rename ``v`` to ``u`` and set ``g = u``.

        The last form is kept with its problem, so a solve, its screen and
        its reports share one form and find its partials and kernels in the
        caches by identity, without comparing equal trees.
        """
        return cls(p.scale, ex.substitute(p.f, "v", ex.Var("u")), ex.Var("u"), p.alpha)


def terms(scale: TimeScale, x, *, u, z: float | None = None) -> tuple:
    """Arguments of the integrand terms ``i = 0 .. n-2`` as numpy columns.

    The columns follow the positional order of :func:`expr.compile_fn`:
    ``t_i``, ``x_{i+1}``, ``0.0`` in the unused ``v`` slot, ``z`` and the
    control samples ``u_i``.  ``z`` defaults to the end value ``x(T)``.
    """
    xv = np.asarray(x, dtype=float)
    z = np.float64(xv[-1] if z is None else z)
    return scale.points[:-1], xv[1:], 0.0, z, np.asarray(u, dtype=float)[:scale.n - 1]


def pointwise(*exprs: ex.Expr) -> Callable[[tuple], np.ndarray]:
    """Evaluator of ``exprs`` at every term of the columns from :func:`terms`.

    The expressions are compiled once; each call returns one row per
    expression.  A ``Const`` is broadcast without a call, numpy's
    floating-point warnings are silenced, and a non-finite entry raises
    ``EvalError``, the ``ValueError`` the line searches step back from.
    """
    fns = [e.value if isinstance(e, ex.Const) else ex.compile_fn(e, array=True) for e in exprs]

    def evaluate(cols: tuple) -> np.ndarray:
        t = cols[0]
        out = np.empty((len(fns), len(t)))
        with np.errstate(all="ignore"):
            for row, fn in zip(out, fns):
                row[...] = fn(*cols) if callable(fn) else fn
        if not np.isfinite(out).all():
            j, i = np.argwhere(~np.isfinite(out))[0]
            raise EvalError(f"{ex.to_text(exprs[j])} is {out[j, i]} at t = {float(t[i])!r}")
        return out

    return evaluate


def partials(p: ControlProblem) -> tuple[ex.Expr, ...]:
    """The first partials of ``f``, then of ``g``, over ``(x, u, z)``; then
    the second partials ``xx, xu, xz, uu, uz, zz`` of ``f``, then of ``g``
    (mixed partials are equal, so six stand for all nine)."""
    return (
        *(ex.diff(e, a) for e in (p.f, p.g) for a in "xuz"),
        *(ex.diff(ex.diff(e, a), b) for e in (p.f, p.g)
          for a, b in ("xx", "xu", "xz", "uu", "uz", "zz")),
    )


def _is_zero(e: ex.Expr) -> bool:
    return isinstance(e, ex.Const) and e.value == 0.0


def integrate_terms(scale: TimeScale, values: np.ndarray) -> float:
    """Delta integral ``sum mu_i values_i`` of term values, summed exactly.

    A sum of finite values that overflows raises ``OverflowError``, an
    overflowing product as ``math.fsum`` does its own partial sums, with no
    numpy warning.
    """
    with np.errstate(over="ignore"):
        products = scale.mu_values[:-1] * values
    total = math.fsum(products.tolist())
    if math.isinf(total) and np.isfinite(values).all():
        raise OverflowError("intermediate overflow in fsum")
    return total


def _check_admissible(p, x: GridFunction) -> None:
    if not x.scale.matches(p.scale):
        raise AdmissibilityError("candidate lives on a different time scale")
    if abs(x.values[0] - p.alpha) > _INIT_RTOL * max(1.0, abs(p.alpha)):
        raise AdmissibilityError(
            f"candidate violates the initial condition: x(a) = {float(x.values[0])!r}, "
            f"expected {float(p.alpha)!r}"
        )


def objective(p: VariationalProblem, x: GridFunction) -> float:
    """Delta-integral value of the Lagrangian along an admissible candidate."""
    _check_admissible(p, x)
    f = ControlProblem.from_variational(p).f
    return integrate_terms(p.scale, pointwise(f)(terms(p.scale, x.values, u=x.delta_values))[0])


def objective_control(p: ControlProblem, x: GridFunction, u: GridFunction) -> float:
    """Delta-integral running cost of a state/control pair.

    The pair must satisfy the discrete dynamics at every differentiation
    point, up to 1e-9 plus the rounding of the difference quotient, a few
    ulps of ``(|x_i| + |x_{i+1}|) / mu_i``.  On a scale that samples a
    dense interval every point gets extra slack ``mu(t)``, since a trajectory
    transcribed from a continuum solution carries an O(mu) residual there.
    """
    _check_admissible(p, x)
    require_same_scale(x, u, "state and control")
    ts = p.scale
    mu = ts.mu_values[:-1]
    xv = x.values
    cols = terms(ts, xv, u=u.values)
    res = np.abs(np.diff(xv) / mu - pointwise(p.g)(cols)[0])
    rounding = _DYNAMICS_ROUNDING * (np.abs(xv[:-1]) + np.abs(xv[1:])) / mu
    slack = _DYNAMICS_ATOL + rounding + (mu if ts.dense else 0.0)
    worst = np.where(res > slack, res, 0.0)
    if worst.any():
        i = int(np.argmax(worst))
        raise DynamicsViolationError(
            f"dynamics violated: worst residual {worst[i]:.3e} at t = {float(ts.points[i])!r}"
        )
    return integrate_terms(ts, pointwise(p.f)(cols)[0])


def norm1(x: GridFunction, ref: GridFunction) -> float:
    """C1-style distance: sup of sigma-shifted values plus sup of delta derivatives.

    Both sups are taken of the difference ``x - ref``; the first ranges over
    the sigma image of the scale, the second over the differentiation domain.
    """
    require_same_scale(x, ref)
    d = x.values - ref.values
    sup_sigma = float(np.max(np.abs(d[1:])))
    sup_delta = float(np.max(np.abs(np.diff(d) / np.diff(x.scale.points))))
    return sup_sigma + sup_delta
