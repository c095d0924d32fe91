"""Pointwise residuals of the first-order necessary conditions, and the
convexity/linearity sufficiency screen.

Variational problems get the Euler-Lagrange residual on the interior
differentiation points and a single transversality residual that couples the
boundary term with the delta integral of the ``z``-partial.  Control problems
get the four Hamiltonian families (state, costate, stationarity,
transversality) of ``H = f + lam*g``, whose partials ``f_a + lam*g_a`` are
formed by array arithmetic from one batch of the first partials of
:func:`tsvar.problem.partials`.  A report has one ``transversality`` scalar
for either class.  The sufficiency screen takes either class, screens the
control form and proves its dynamics linear from the second partials of
``g`` and the exact zero of ``g`` at the origin; only the convexity of
``f`` is sampled, on 256 midpoint pairs from ``[-8, 8]^3``.

Multiplier grids hold sigma-shifted samples: ``lam.values[i]`` is the
multiplier composed with the forward jump, sampled at ``t_i``.  The sample at
the last point would need a value beyond the grid and is never evaluated;
solvers leave it NaN.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import expr as ex
from .errors import ScaleMismatchError
from .problem import (
    ControlProblem, VariationalProblem, _check_admissible, _is_zero, integrate_terms, partials,
    pointwise, terms,
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
]


@dataclass(frozen=True, eq=False)
class ResidualReport:
    """Per-point residuals of the necessary conditions plus summary norm.

    Variational reports fill ``el_residuals``, control reports the three
    Hamiltonian arrays; both fill the ``transversality`` scalar of their
    family, as :func:`tsvar.solver.residual_report` picks.  ``sup_norm`` is
    the largest magnitude among everything present, NaN when any of it is.
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
        """Human-readable residual table, one row per scale point.

        A family shorter than the scale prints ``-`` past its end.  The rows
        between two family lengths share one format, one ``%`` call a row.
        """
        fams = [(name, arr) for name, arr in self._families() if arr is not None]
        cols = [np.asarray(arr, dtype=float).tolist() for _, arr in fams]
        lines = ["  ".join("%16s" % h for h in ["t", *(name for name, _ in fams)])]
        n = self.scale.n
        rows = list(itertools.islice(
            itertools.zip_longest(self.scale.points.tolist(), *cols, fillvalue="-"), n))
        start = 0
        for end in sorted({len(c) for c in cols if len(c) < n} | {n}):
            fmt = "  ".join(["%16.8g", *("%16.6e" if len(c) >= end else "%16s" for c in cols)])
            lines.extend(fmt % row for row in rows[start:end])
            start = end
        if self.transversality is not None:
            lines.append(f"{'transversality':>16s}  {self.transversality:16.6e}")
        lines.append(f"{'sup norm':>16s}  {self.sup_norm:16.6e}")
        return "\n".join(lines)


def _sup(*families) -> float:
    """Largest magnitude in the arrays and scalars; NaN when any is, which ``max`` would drop."""
    return float(np.max([np.max(np.abs(a), initial=0.0) for a in families]))


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
        sup_norm=_sup(el, tc),
    )


# -- Hamiltonian conditions ----------------------------------------------------


def _hamiltonian_partials(p: ControlProblem, x, u, lam, axes: str, *extra) -> list:
    """Rows of ``H_a = f_a + lam*g_a`` for ``a`` in ``axes``, then those of
    ``extra``, from one batch of the partials of ``f`` and ``g``.  A term that
    ``diff(f + lam*g, a)`` folds away (``g_a`` or ``f_a`` the constant 0) is
    left out, so each row has the bits of the compiled ``diff(H, a)``; a row
    that is not finite raises ``ValueError`` naming ``H_a``."""
    d, k = partials(p), len(axes)
    fs = [d["xuz".index(a)] for a in axes]
    gs = [d["xuz".index(a) + 3] for a in axes]
    rows = list(pointwise(*fs, *gs, *extra)(terms(p.scale, x.values, u=u.values)))
    lv = lam.values[:-1]
    for j, (fa, ga, fr, gr) in enumerate(zip(fs, gs, rows, rows[k:])):
        h = rows[j] = fr if _is_zero(ga) else lv * gr if _is_zero(fa) else fr + lv * gr
        bad = np.flatnonzero(~np.isfinite(h))
        if bad.size:
            text = ex.to_text(ex._add(fa, ex._mul(ex.Var("lam"), ga)))
            raise ValueError(f"{text} is {h[bad[0]]} at t = {float(p.scale.points[bad[0]])!r}")
    return rows[:k] + rows[2 * k:]


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
    ts = p.scale
    mu, xv, lv = ts.mu_values[:-1], x.values, lam.values
    hx, hu, hz, g = _hamiltonian_partials(p, x, u, lam, "xuz", p.g)
    state = np.diff(xv) / mu - g
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
        sup_norm=_sup(state, costate, stationarity, tc),
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
    (hz,) = _hamiltonian_partials(p, x, u, lam, "z")
    return float(lam.values[p.scale.n - 2]) - integrate_terms(p.scale, hz)


# -- sufficiency ---------------------------------------------------------------


@dataclass(frozen=True)
class SufficiencyVerdict:
    """Outcome of the convexity/linearity screen.

    ``sufficient`` upgrades an extremal to a global minimizer.  Linearity of
    the dynamics is proven from their second partials; convexity of the cost
    is sampled, which can refute it but only heuristically confirm it.  The
    alternative verdict is ``inconclusive``, with a witness when a check
    failed at a point.
    """

    status: str  # "sufficient" | "inconclusive"
    reason: str = ""
    witness: tuple | None = None

    @property
    def sufficient(self) -> bool:
        return self.status == "sufficient"


# The sampled half of the screen: midpoint-convexity point pairs of f drawn
# from the box.
_SAMPLES = 256
_BOX = (-8.0, 8.0)

# The ``sufficient`` verdict, one object shared by every solution that gets it.
_PASSED = SufficiencyVerdict(
    "sufficient",
    f"dynamics linear in (x, u, z); cost passed {_SAMPLES} midpoint-convexity probes",
)


def _draws(rng: np.random.Generator, ts: np.ndarray, n: int):
    """Yield ``n`` samples ``(t, a, b)`` in Python floats: ``t`` from ``ts``,
    then ``a`` and ``b``, three uniform draws each from the box.

    ``rng.integers(0, len(ts))`` is the call ``rng.choice(ts)`` makes, so the
    stream is the one ``choice`` and ``uniform(size=3)`` draw, in that order.
    Float arithmetic on the samples has the bits of numpy's elementwise
    arithmetic; unlike ``np.float64`` operands, floats make a scalar kernel
    raise ``ZeroDivisionError`` where it divides by zero.
    """
    ts = ts.tolist()
    k = len(ts)
    for _ in range(n):
        t = ts[rng.integers(0, k)]
        yield t, rng.uniform(*_BOX, size=3).tolist(), rng.uniform(*_BOX, size=3).tolist()


@lru_cache(maxsize=64)
def _sampler_state(seed: int, k: int) -> dict:
    """State of the generator seeded with ``seed`` after 64 draws of one
    ``integers(0, k)`` and two ``uniform(size=3)`` calls.

    Those are the draws of the sampled affinity probes that the exact
    linearity test replaced; the cost sampler starts where they left off,
    so that its draws stay as they were.  ``compile_fn.cache_clear()``
    empties this memo too.
    """
    rng = np.random.default_rng(seed)
    for _ in range(64):
        rng.integers(0, k)
        rng.uniform(-4.0, 4.0, size=3)
        rng.uniform(-2.0, 2.0, size=3)
    return rng.bit_generator.state


def _clear_caches(clear_compiled=ex.compile_fn.cache_clear) -> None:
    clear_compiled()
    _sampler_state.cache_clear()


ex.compile_fn.cache_clear = _clear_caches


def _linearity_check(p: ControlProblem):
    """``g(t, 0, 0, 0) = 0`` and the six second partials of ``g`` are zero.

    The origin test evaluates every differentiation point in one array call;
    the first point where ``g`` is not finite or not zero is the witness.
    With every second partial the constant 0, ``g`` is affine in
    ``(x, u, z)`` with coefficients in ``t``, and linear where it vanishes
    at the origin: a proof, not a sample.  Otherwise the reason names the
    first partial that is not zero, in the order of :func:`partials`; the
    witness is the first point where it is not zero at the origin, or
    ``None`` when it vanishes there at every point.
    """
    ts = p.scale.points[:-1]
    with np.errstate(all="ignore"):
        origin = np.broadcast_to(ex.compile_fn(p.g, array=True)(ts), ts.shape)
    bad = np.flatnonzero(origin != 0.0)  # NaN is not zero either
    if bad.size:
        t, val = float(ts[bad[0]]), float(origin[bad[0]])
        why = "dynamics are affine but not linear" if math.isfinite(val) else "dynamics undefined"
        return SufficiencyVerdict(
            "inconclusive", f"{why}: g(t,0,0,0) = {val:.3e} at t = {t!r}", (t, (0.0, 0.0, 0.0))
        )
    for name, d in zip(("xx", "xu", "xz", "uu", "uz", "zz"), partials(p)[12:]):
        if not _is_zero(d):
            with np.errstate(all="ignore"):
                at_origin = np.broadcast_to(ex.compile_fn(d, array=True)(ts), ts.shape)
            bad = np.flatnonzero(at_origin != 0.0)  # NaN is not zero either
            return SufficiencyVerdict(
                "inconclusive",
                f"dynamics are not linear: g_{name} = {ex.to_text(d)} is not zero",
                (float(ts[bad[0]]), (0.0, 0.0, 0.0)) if bad.size else None,
            )
    return None


def sufficiency_check(p: VariationalProblem | ControlProblem, seed: int = 0) -> SufficiencyVerdict:
    """Screen the problem against the global-minimizer sufficient conditions.

    A variational problem is screened in its control form ``g = u``.
    ``sufficient`` when the dynamics are proven linear in ``(x, u, z)``, from
    their second partials and their value at the origin, and the running
    cost passes randomized midpoint-convexity sampling on 256 point pairs
    drawn from ``[-8, 8]^3`` by a generator seeded with ``seed``; otherwise
    ``inconclusive`` with a witness.  Only the convexity of the cost is
    sampled.
    """
    if isinstance(p, VariationalProblem):
        p = ControlProblem.from_variational(p)
    failed = _linearity_check(p)
    if failed is not None:
        return failed

    ts = p.scale.points[:-1]
    rng = np.random.default_rng(seed)
    rng.bit_generator.state = _sampler_state(seed, len(ts))
    f = ex.compile_fn(p.f)
    for t, a, b in _draws(rng, ts, _SAMPLES):
        (ax, au, az), (bx, bu, bz) = a, b
        try:
            fa = f(t, ax, 0.0, az, au)
            fb = f(t, bx, 0.0, bz, bu)
            fm = f(t, 0.5 * (ax + bx), 0.0, 0.5 * (az + bz), 0.5 * (au + bu))
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
