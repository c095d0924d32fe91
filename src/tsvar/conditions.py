"""Pointwise residuals of the first-order necessary conditions, and the
convexity/linearity sufficiency screen.

Variational problems get the Euler-Lagrange residual on the interior
differentiation points and a single transversality residual that couples the
boundary term with the delta integral of the ``z``-partial, both from the
first partials of the control form ``g = u`` at the slopes.  Control problems
get the four Hamiltonian families (state, costate, stationarity,
transversality) of ``H = f + lam*g``, whose partials ``f_a + lam*g_a`` are
formed by array arithmetic from one batch of the first partials of
:func:`tsvar.problem.partials`; without given multipliers the same batch
gives them, by the costate recurrence and the transversality equation that
the solvers' Newton core solves too, and the report carries them.  A report
has one ``transversality`` scalar for either class.  The sufficiency screen
takes either class, screens the control form and proves its dynamics affine
from the second partials of ``g`` and finite at the origin; only the
convexity of ``f`` is sampled, on 256 midpoint pairs from ``[-8, 8]^3``,
each one ``integers(0, k)`` and one six-wide ``uniform`` draw.  Each
problem object is screened at most once: the verdict is kept on the object.

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
from .errors import ScaleMismatchError, SolveError
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
    Hamiltonian arrays and ``lam``, the multipliers those were evaluated at;
    both fill the ``transversality`` scalar of their family, as
    :func:`tsvar.solver.residual_report` picks.  ``sup_norm`` is the largest
    magnitude among everything present, NaN when any of it is.
    """

    scale: TimeScale
    el_residuals: np.ndarray | None = None
    transversality: float | None = None
    state_residuals: np.ndarray | None = None
    costate_residuals: np.ndarray | None = None
    stationarity_residuals: np.ndarray | None = None
    sup_norm: float = math.nan
    lam: GridFunction | None = None

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
    """Rows ``f_x, f_v, f_z``: ``f_x, f_u, f_z`` of the control form at the slopes."""
    _check_admissible(p, x)
    fx, fu, fz = partials(ControlProblem.from_variational(p))[:3]
    return pointwise(fx, fu, fz)(terms(p.scale, x.values, u=x.delta_values))


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


def transversality_residual(p: VariationalProblem, x: GridFunction) -> float:
    """Boundary residual for the free end value.

    The general form integrates the ``x``-partial over the final step; on
    every finite representation that one-step integral is the
    graininess-weighted endpoint value of the regular-scale form, so one
    expression gives both.
    """
    return _transversality(p.scale, *_variational_partials(p, x))


def _transversality(ts: TimeScale, fx, fv, fz) -> float:
    k = ts.n - 2  # backward jump of the end point
    return float(fv[k] + ts.mu_values[k] * fx[k] + integrate_terms(ts, fz))


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
    tc = _transversality(p.scale, fx, fv, fz)
    return ResidualReport(p.scale, el_residuals=el, transversality=tc, sup_norm=_sup(el, tc))


# -- Hamiltonian conditions ----------------------------------------------------


_SINGULAR = 1e-13  # |1 - mu g_x| below this: the state or costate step has no unique solution


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


def _costate(ts: TimeScale, gx, fx, fz, gz) -> np.ndarray:
    """The multipliers from the partials ``g_x, f_x, f_z, g_z`` at every term.

    The costate recurrence and the transversality equation are both affine
    in the multiplier, so two backward sweeps (end sample 0 and 1) over the
    same partials determine the exact solution.
    """
    mu = ts.mu_values[:-1]
    k = ts.n - 2
    denom = 1.0 - mu[:k] * gx[:k]
    singular = np.flatnonzero(np.abs(denom) < _SINGULAR)
    if singular.size:
        raise SolveError(f"costate recurrence singular at t = {float(ts.points[singular[-1]])!r}")
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


def _hamiltonian_partials(p: ControlProblem, x, u, lam, axes: str, *extra) -> tuple:
    """``lam`` and the rows of ``H_a = f_a + lam*g_a`` for ``a`` in ``axes``,
    then those of ``extra``, from one batch of the partials of ``f`` and
    ``g``.  A ``lam`` of ``None`` is recovered by :func:`_costate` from that
    batch, which then needs ``axes`` to be ``"xuz"``, and is NaN at the
    maximum.  A term that ``diff(f + lam*g, a)`` folds away (``g_a`` or
    ``f_a`` the constant 0) is left out, so each row has the bits of the
    compiled ``diff(H, a)``; a row that is not finite raises ``ValueError``
    naming ``H_a``."""
    d, k = partials(p), len(axes)
    fs = [d["xuz".index(a)] for a in axes]
    gs = [d["xuz".index(a) + 3] for a in axes]
    rows = list(pointwise(*fs, *gs, *extra)(terms(p.scale, x.values, u=u.values)))
    if lam is None:
        fx, _, fz, gx, _, gz = rows[:6]
        lam = GridFunction(p.scale, np.append(_costate(p.scale, gx, fx, fz, gz), np.nan))
    lv = lam.values[:-1]
    for j, (fa, ga, fr, gr) in enumerate(zip(fs, gs, rows, rows[k:])):
        h = rows[j] = fr if _is_zero(ga) else lv * gr if _is_zero(fa) else fr + lv * gr
        bad = np.flatnonzero(~np.isfinite(h))
        if bad.size:
            text = ex.to_text(ex._add(fa, ex._mul(ex.Var("lam"), ga)))
            raise ValueError(f"{text} is {h[bad[0]]} at t = {float(p.scale.points[bad[0]])!r}")
    return lam, rows[:k] + rows[2 * k:]


def hamiltonian_residuals(
    p: ControlProblem, x: GridFunction, u: GridFunction, lam: GridFunction | None = None
) -> ResidualReport:
    """Residuals of the Hamiltonian system for ``H = f + lam*g``.

    State and stationarity residuals live on the differentiation points; the
    costate residual needs a forward difference of the multiplier samples and
    therefore stops one point earlier.  The transversality scalar compares
    the final multiplier sample against the one-step integral of the
    ``x``-partial plus the full integral of the ``z``-partial.  Without
    ``lam`` the multipliers are recovered from the same batch of partials;
    the report keeps the multipliers it was evaluated at.
    """
    _check_admissible(p, x)
    require_same_scale(x, u, "state and control")
    if lam is not None:
        require_same_scale(x, lam, "state and multiplier")
    ts = p.scale
    mu, xv = ts.mu_values[:-1], x.values
    lam, (hx, hu, hz, g) = _hamiltonian_partials(p, x, u, lam, "xuz", p.g)
    lv = lam.values
    state = np.diff(xv) / mu - g
    stationarity = hu.copy()  # a row alone, not a view that keeps the whole batch alive
    costate = np.diff(lv[:-1]) / mu[:-1] + hx[:-1]
    k = ts.n - 2
    tc = float(lv[k] - mu[k] * hx[k] - integrate_terms(ts, hz))
    return ResidualReport(ts, state_residuals=state, costate_residuals=costate,
                          stationarity_residuals=stationarity, transversality=tc,
                          sup_norm=_sup(state, costate, stationarity, tc), lam=lam)


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
    _, (hz,) = _hamiltonian_partials(p, x, u, lam, "z")
    return float(lam.values[p.scale.n - 2]) - integrate_terms(p.scale, hz)


# -- sufficiency ---------------------------------------------------------------


@dataclass(frozen=True)
class SufficiencyVerdict:
    """Outcome of the convexity/linearity screen.

    ``sufficient`` upgrades an extremal to a global minimizer.  That the
    dynamics are affine is proven from their second partials; convexity of
    the cost is sampled, which can refute it but only heuristically confirm
    it.  The alternative verdict is ``inconclusive``, with a witness when a
    check failed at a point.
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

# The two ``sufficient`` verdicts, each one object shared by every solution.
_PASSED = SufficiencyVerdict(
    "sufficient",
    f"dynamics linear in (x, u, z); cost passed {_SAMPLES} midpoint-convexity probes",
)
_PASSED_AFFINE = SufficiencyVerdict(
    "sufficient",
    f"dynamics affine in (x, u, z); cost passed {_SAMPLES} midpoint-convexity probes",
)


@lru_cache(maxsize=64)
def _sampler_state(k: int) -> dict:
    """State of the generator seeded with 0 after 64 draws of one
    ``integers(0, k)`` and six doubles (two ``uniform(size=3)`` calls).

    Those are the draws of the sampled affinity probes that the exact
    linearity test replaced; the cost sampler starts where they left off,
    so that its draws stay as they were.  The state depends only on ``k``,
    so new problem objects, which are screened afresh (a sweep builds one
    per row), share it; ``compile_fn.cache_clear()`` empties this memo.
    """
    rng = np.random.default_rng(0)
    for _ in range(64):
        rng.integers(0, k)
        rng.random(6)
    return rng.bit_generator.state


def _linearity_check(p: ControlProblem):
    """``g(t, 0, 0, 0)`` is finite and the six second partials of ``g`` are zero.

    The origin test evaluates every differentiation point in one array call;
    the first point where ``g`` is not finite is the witness.  With every
    second partial the constant 0, ``g`` is affine in ``(x, u, z)`` with
    coefficients in ``t``: a proof, not a sample, and ``_PASSED``, or
    ``_PASSED_AFFINE`` where ``g`` does not vanish at the origin.  Otherwise
    the reason names the first partial that is not zero, in the order of
    :func:`partials`; the witness is the first point where it is not zero
    at the origin, or ``None`` when it vanishes there at every point.
    """
    ts = p.scale.points[:-1]
    # zero columns, not the Python float defaults, whose division by zero raises
    at = (ts, *[np.zeros_like(ts)] * 4)
    with np.errstate(all="ignore"):
        origin = np.broadcast_to(ex.compile_fn(p.g, array=True)(*at), ts.shape)
    bad = np.flatnonzero(~np.isfinite(origin))
    if bad.size:
        t, val = float(ts[bad[0]]), float(origin[bad[0]])
        return SufficiencyVerdict(
            "inconclusive", f"dynamics undefined: g(t,0,0,0) = {val:.3e} at t = {t!r}",
            (t, (0.0, 0.0, 0.0)),
        )
    for name, d in zip(("xx", "xu", "xz", "uu", "uz", "zz"), partials(p)[12:]):
        if not _is_zero(d):
            with np.errstate(all="ignore"):
                at_origin = np.broadcast_to(ex.compile_fn(d, array=True)(*at), ts.shape)
            bad = np.flatnonzero(at_origin != 0.0)  # NaN is not zero either
            return SufficiencyVerdict(
                "inconclusive",
                f"dynamics are not linear: g_{name} = {ex.to_text(d)} is not zero",
                (float(ts[bad[0]]), (0.0, 0.0, 0.0)) if bad.size else None,
            )
    return _PASSED_AFFINE if origin.any() else _PASSED


def sufficiency_check(p: VariationalProblem | ControlProblem) -> SufficiencyVerdict:
    """Screen the problem against the global-minimizer sufficient conditions.

    A variational problem is screened in its control form ``g = u``.
    ``sufficient`` when the dynamics are proven affine in ``(x, u, z)``, from
    their second partials, and finite at the origin, and the running
    cost passes randomized midpoint-convexity sampling on 256 point pairs
    drawn from ``[-8, 8]^3`` by a generator seeded with 0, so the verdict
    is a function of the problem; otherwise ``inconclusive`` with a witness.
    A convex cost under affine dynamics makes each KKT point a global
    minimizer (Boyd & Vandenberghe, §5.5.3); only the convexity is sampled.

    Each problem object is screened at most once: the verdict is kept on
    the object, so every later call, in any order of solves, returns that
    same verdict object.  Problems compare by identity, so a structurally
    equal problem, or one made by ``dataclasses.replace``, is screened afresh.
    """
    verdict = p._verdict
    if verdict is None:
        verdict = _screen(p)
        object.__setattr__(p, "_verdict", verdict)
    return verdict


def _screen(p: VariationalProblem | ControlProblem) -> SufficiencyVerdict:
    """The screen of :func:`sufficiency_check`, without the kept verdict.

    Each sample is one ``integers(0, k)`` draw (the call ``rng.choice``
    makes) and one ``uniform(size=6)`` draw, with the bits of the former two
    ``uniform(size=3)``; as Python floats, unlike ``np.float64``, they make
    a scalar kernel raise ``ZeroDivisionError`` where it divides by zero.
    """
    if isinstance(p, VariationalProblem):
        p = ControlProblem.from_variational(p)
    passed = _linearity_check(p)
    if not passed.sufficient:
        return passed

    ts = p.scale.points[:-1].tolist()
    rng = np.random.default_rng(0)
    rng.bit_generator.state = _sampler_state(len(ts))
    integers, uniform = rng.integers, rng.uniform
    k, f = len(ts), ex.compile_fn(p.f)
    for _ in range(_SAMPLES):
        t = ts[integers(0, k)]
        ax, au, az, bx, bu, bz = uniform(*_BOX, size=6).tolist()
        try:
            fa = f(t, ax, 0.0, az, au)
            fb = f(t, bx, 0.0, bz, bu)
            fm = f(t, 0.5 * (ax + bx), 0.0, 0.5 * (az + bz), 0.5 * (au + bu))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            return SufficiencyVerdict(
                "inconclusive",
                f"running cost undefined inside the sampling box: {exc}",
                (t, (ax, au, az), (bx, bu, bz)),
            )
        slack = 1e-10 * (1.0 + abs(fa) + abs(fb))
        if fm > 0.5 * (fa + fb) + slack:
            return SufficiencyVerdict(
                "inconclusive",
                f"midpoint convexity violated by {fm - 0.5 * (fa + fb):.3e}",
                (t, (ax, au, az), (bx, bu, bz)),
            )
    return passed


def _clear_caches(clear_compiled=ex.compile_fn.cache_clear) -> None:
    clear_compiled()
    _sampler_state.cache_clear()


ex.compile_fn.cache_clear = _clear_caches
