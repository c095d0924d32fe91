"""Pointwise residuals of the first-order necessary conditions, and the
convexity/linearity sufficiency screen.

Variational problems get the Euler-Lagrange residual on the interior
differentiation points and a single transversality residual that couples the
boundary term with the delta integral of the ``z``-partial.  Control problems
get the four Hamiltonian families (state, costate, stationarity,
transversality) built from ``H = f + lam*g``.  A report has one
``transversality`` scalar for either class.  The sufficiency screen's
sampling is fixed (64 affinity probes of ``g``, 256 midpoint pairs of ``f``
from ``[-8, 8]^3``); only its seed is a parameter.

Multiplier grids hold sigma-shifted samples: ``lam.values[i]`` is the
multiplier composed with the forward jump, sampled at ``t_i``.  The sample at
the last point would need a value beyond the grid and is never evaluated;
solvers leave it NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import expr as ex
from .errors import ScaleMismatchError
from .problem import (
    ControlProblem, VariationalProblem, _check_admissible, integrate_terms, pointwise, terms,
)
from .timescale import GridFunction, TimeScale, require_same_scale

__all__ = [
    "ResidualReport",
    "SufficiencyVerdict",
    "euler_lagrange_residual",
    "transversality_residual",
    "transversality_residual_classical",
    "transversality_residual_discrete",
    "variational_residuals",
    "hamiltonian_residuals",
    "transversality_residual_control_classical",
    "sufficiency_check",
    "sufficiency_check_variational",
]


@dataclass(frozen=True, eq=False)
class ResidualReport:
    """Per-point residuals of the necessary conditions plus summary norm.

    Variational reports fill ``el_residuals``, control reports the three
    Hamiltonian arrays; both fill the ``transversality`` scalar of their
    family.  ``sup_norm`` is the largest magnitude among everything present.
    """

    scale: TimeScale
    el_residuals: np.ndarray | None = None
    transversality: float | None = None
    state_residuals: np.ndarray | None = None
    costate_residuals: np.ndarray | None = None
    stationarity_residuals: np.ndarray | None = None
    sup_norm: float = math.nan

    def _families(self):
        yield "euler_lagrange", self.el_residuals
        yield "state", self.state_residuals
        yield "costate", self.costate_residuals
        yield "stationarity", self.stationarity_residuals

    def to_dict(self) -> dict:
        out: dict = {"sup_norm": self.sup_norm}
        for name, arr in self._families():
            if arr is not None:
                out[name] = np.asarray(arr, dtype=float).tolist()
        if self.transversality is not None:
            out["transversality"] = float(self.transversality)
        return out

    def to_table(self) -> str:
        """Human-readable residual table, one row per scale point."""
        pts = self.scale.points
        cols = [(name, arr) for name, arr in self._families() if arr is not None]
        header = ["t"] + [name for name, _ in cols]
        lines = ["  ".join(f"{h:>16s}" for h in header)]
        for i, t in enumerate(pts):
            row = [f"{t:16.8g}"]
            for _, arr in cols:
                row.append(f"{arr[i]:16.6e}" if i < len(arr) else f"{'-':>16s}")
            lines.append("  ".join(row))
        if self.transversality is not None:
            lines.append(f"{'transversality':>16s}  {self.transversality:16.6e}")
        lines.append(f"{'sup norm':>16s}  {self.sup_norm:16.6e}")
        return "\n".join(lines)


def _sup(arrays: Iterable[np.ndarray | None], scalars: Iterable[float | None]) -> float:
    vals = [0.0]
    for a in arrays:
        if a is not None and len(a):
            vals.append(float(np.max(np.abs(a))))
    for s in scalars:
        if s is not None:
            vals.append(abs(s))
    return max(vals)


# -- variational conditions ---------------------------------------------------


def _variational_partials(p: VariationalProblem, x: GridFunction) -> np.ndarray:
    """Rows ``f_x``, ``f_v``, ``f_z`` at every integrand term of ``x``."""
    _check_admissible(p, x)
    return pointwise(*(ex.diff(p.f, a) for a in "xvz"))(terms(p.scale, x.values))


def euler_lagrange_residual(p: VariationalProblem, x: GridFunction) -> np.ndarray:
    """Delta derivative of the ``v``-partial minus the ``x``-partial.

    The outer delta derivative consumes two forward points, so the residual
    exists on every differentiation point whose successor is also one
    (indices ``0 .. n-3``).
    """
    fx, fv, _ = _variational_partials(p, x)
    return _euler_lagrange(p.scale, fx, fv)


def _euler_lagrange(ts: TimeScale, fx: np.ndarray, fv: np.ndarray) -> np.ndarray:
    return (fv[1:] - fv[:-1]) / ts.mu_values[:-2] - fx[:-1]


def transversality_residual(p: VariationalProblem, x: GridFunction, form: str = "general") -> float:
    """Boundary residual for the free end value.

    ``form="general"`` integrates the ``x``-partial over the final step;
    ``form="regular"`` replaces that one-step integral by its graininess-
    weighted endpoint value, valid on regular scales.  The two agree to
    rounding on every finite representation.
    """
    if form not in ("general", "regular"):
        raise ValueError(f"unknown form {form!r}")
    return _transversality(p.scale, *_variational_partials(p, x), form)


def _transversality(ts: TimeScale, fx, fv, fz, form: str) -> float:
    k = ts.n - 2  # backward jump of the end point
    if form == "general":
        step = GridFunction(ts, np.append(fx, 0.0)).delta_integral(k, ts.n - 1)
    else:
        step = ts.mu_values[k] * fx[k]
    return float(fv[k] + step + integrate_terms(ts, fz))


def transversality_residual_classical(p: VariationalProblem, x: GridFunction) -> float:
    """Natural-boundary residual in its real-line form.

    Drops the graininess-weighted ``x``-partial correction; this is the limit
    of :func:`transversality_residual` under mesh refinement, so it is only
    admitted on uniform dense samplings.
    """
    _check_admissible(p, x)
    if not p.scale.is_uniform_sampling():
        raise ScaleMismatchError(
            "classical transversality form needs a uniform dense sampling"
        )
    _, fv, fz = _variational_partials(p, x)
    return float(fv[-1] + integrate_terms(p.scale, fz))


def transversality_residual_discrete(p: VariationalProblem, x: GridFunction) -> float:
    """Unit-step form of the boundary residual on integer grids.

    Evaluates ``f_x + f_v`` at the final differentiation point plus the plain
    sum of the ``z``-partials; identical to the general form when the
    graininess is one everywhere.
    """
    _check_admissible(p, x)
    if not p.scale.is_integer_grid():
        raise ScaleMismatchError("discrete transversality form needs an integer grid")
    fx, fv, fz = _variational_partials(p, x)
    return float(fx[-1] + fv[-1] + math.fsum(fz))


def variational_residuals(p: VariationalProblem, x: GridFunction) -> ResidualReport:
    fx, fv, fz = _variational_partials(p, x)
    el = _euler_lagrange(p.scale, fx, fv)
    tc = _transversality(p.scale, fx, fv, fz, "general")
    return ResidualReport(
        scale=p.scale,
        el_residuals=el,
        transversality=tc,
        sup_norm=_sup([el], [tc]),
    )


# -- Hamiltonian conditions ----------------------------------------------------


def _hamiltonian(p: ControlProblem) -> ex.Expr:
    return ex.Binary("add", p.f, ex.Binary("mul", ex.Var("lam"), p.g))


def hamiltonian_residuals(
    p: ControlProblem, x: GridFunction, u: GridFunction, lam: GridFunction
) -> ResidualReport:
    """Residuals of the Hamiltonian system for ``H = f + lam*g``.

    State and stationarity residuals live on the differentiation points; the
    costate residual needs a forward difference of the multiplier samples and
    therefore stops one point earlier.  The transversality scalar compares
    the final multiplier sample against the one-step integral of the
    ``x``-partial plus the full integral of the ``z``-partial.
    """
    _check_admissible(p, x)
    require_same_scale(x, u, "state and control")
    require_same_scale(x, lam, "state and multiplier")
    H = _hamiltonian(p)
    ts = p.scale
    mu, xv, lv = ts.mu_values[:-1], x.values, lam.values
    hx, hu, hlam, hz = pointwise(*(ex.diff(H, a) for a in ("x", "u", "lam", "z")))(
        terms(ts, xv, u=u.values, lam=lv)
    )
    state = np.diff(xv) / mu - hlam
    stationarity = hu.copy()  # a row alone, not a view that keeps the whole batch alive
    costate = np.diff(lv[:-1]) / mu[:-1] + hx[:-1]
    k = ts.n - 2
    tc = float(lv[k] - mu[k] * hx[k] - integrate_terms(ts, hz))

    return ResidualReport(
        scale=ts,
        state_residuals=state,
        costate_residuals=costate,
        stationarity_residuals=stationarity,
        transversality=tc,
        sup_norm=_sup([state, costate, stationarity], [tc]),
    )


def transversality_residual_control_classical(
    p: ControlProblem, x: GridFunction, u: GridFunction, lam: GridFunction
) -> float:
    """Real-line multiplier boundary residual: end multiplier minus the
    integral of the ``z``-partial of the Hamiltonian.

    With ``f`` and ``g`` independent of ``z`` this is the standard vanishing
    end multiplier.  Only admitted on uniform dense samplings, where the
    final sigma-shifted sample stands in for the end value.
    """
    _check_admissible(p, x)
    require_same_scale(x, u, "state and control")
    require_same_scale(x, lam, "state and multiplier")
    if not p.scale.is_uniform_sampling():
        raise ScaleMismatchError(
            "classical multiplier transversality needs a uniform dense sampling"
        )
    ts = p.scale
    (hz,) = pointwise(ex.diff(_hamiltonian(p), "z"))(
        terms(ts, x.values, u=u.values, lam=lam.values)
    )
    return float(lam.values[ts.n - 2]) - integrate_terms(ts, hz)


# -- sufficiency ---------------------------------------------------------------


@dataclass(frozen=True)
class SufficiencyVerdict:
    """Outcome of the convexity/linearity screen.

    ``sufficient`` upgrades an extremal to a global minimizer; sampling can
    refute convexity but only heuristically confirm it, so the alternative
    verdict is ``inconclusive``, with a witness when a check failed.
    """

    status: str  # "sufficient" | "inconclusive"
    reason: str = ""
    witness: tuple | None = None

    @property
    def sufficient(self) -> bool:
        return self.status == "sufficient"


# The sampled screen: affinity probes of g, and midpoint-convexity point
# pairs of f drawn from the box.
_PROBES = 64
_SAMPLES = 256
_BOX = (-8.0, 8.0)

# The ``sufficient`` verdict, one object shared by every solution that gets it.
_PASSED = SufficiencyVerdict(
    "sufficient",
    f"dynamics linear in (x, u, z); cost passed {_SAMPLES} midpoint-convexity probes",
)


def _linearity_check(p: ControlProblem, rng: np.random.Generator):
    """Second differences of ``g`` vanish and ``g(t, 0, 0, 0) = 0``.

    The origin test evaluates every differentiation point in one array call;
    the first point where ``g`` is not finite or not zero is the witness.
    """
    ts = p.scale.points[:-1]
    with np.errstate(all="ignore"):
        origin = np.broadcast_to(ex.compile_fn(p.g, array=True)(ts), ts.shape)
    bad = np.flatnonzero(~(np.abs(origin) <= 1e-12))
    if bad.size:
        t, val = float(ts[bad[0]]), float(origin[bad[0]])
        why = "dynamics are affine but not linear" if math.isfinite(val) else "dynamics undefined"
        return SufficiencyVerdict(
            "inconclusive", f"{why}: g(t,0,0,0) = {val:.3e} at t = {t!r}", (t, (0.0, 0.0, 0.0))
        )
    g = ex.compile_fn(p.g)
    for _ in range(_PROBES):
        t = float(rng.choice(ts))
        w = rng.uniform(-4.0, 4.0, size=3)
        d = rng.uniform(-2.0, 2.0, size=3)
        try:
            f0 = g(t, w[0], 0.0, w[2], w[1])
            fp = g(t, w[0] + d[0], 0.0, w[2] + d[2], w[1] + d[1])
            fm = g(t, w[0] - d[0], 0.0, w[2] - d[2], w[1] - d[1])
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            return SufficiencyVerdict(
                "inconclusive",
                f"dynamics undefined inside the probing box: {exc}",
                (t, tuple(w), tuple(d)),
            )
        second = fp - 2.0 * f0 + fm
        scale = 1.0 + abs(f0) + abs(fp) + abs(fm)
        if not abs(second) <= 1e-9 * scale:  # a NaN difference fails too
            return SufficiencyVerdict(
                "inconclusive",
                f"dynamics fail the affinity probe: second difference {second:.3e}",
                (t, tuple(w), tuple(d)),
            )
    return None


def sufficiency_check(p: ControlProblem, seed: int = 0) -> SufficiencyVerdict:
    """Screen the problem against the global-minimizer sufficient conditions.

    ``sufficient`` when the dynamics pass an exact linearity test in
    ``(x, u, z)`` and the running cost passes randomized midpoint-convexity
    sampling on 256 point pairs drawn from ``[-8, 8]^3``, by a generator
    seeded with ``seed``; otherwise ``inconclusive`` with a witness.
    """
    rng = np.random.default_rng(seed)
    failed = _linearity_check(p, rng)
    if failed is not None:
        return failed

    f = ex.compile_fn(p.f)
    lo, hi = _BOX
    pts = p.scale.points
    for _ in range(_SAMPLES):
        t = float(rng.choice(pts[:-1]))
        a = rng.uniform(lo, hi, size=3)
        b = rng.uniform(lo, hi, size=3)
        m = 0.5 * (a + b)
        try:
            fa = f(t, a[0], 0.0, a[2], a[1])
            fb = f(t, b[0], 0.0, b[2], b[1])
            fm = f(t, m[0], 0.0, m[2], m[1])
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            return SufficiencyVerdict(
                "inconclusive",
                f"running cost undefined inside the sampling box: {exc}",
                (t, tuple(a), tuple(b)),
            )
        slack = 1e-10 * (1.0 + abs(fa) + abs(fb))
        if fm > 0.5 * (fa + fb) + slack:
            return SufficiencyVerdict(
                "inconclusive",
                f"midpoint convexity violated by {fm - 0.5 * (fa + fb):.3e}",
                (t, tuple(a), tuple(b)),
            )
    return _PASSED


def sufficiency_check_variational(p: VariationalProblem, seed: int = 0) -> SufficiencyVerdict:
    """Sufficiency screen of the equivalent control form (``g = u``)."""
    return sufficiency_check(ControlProblem.from_variational(p), seed)
