"""Bounded time scales as finite point sets, with the delta calculus.

Genuinely discrete scales (integer grids, q-grids, explicit point sets) are
represented exactly.  Dense intervals enter as uniform samplings, flagged
``dense`` as a whole; on such samplings every operator converges at first
order in the mesh width.  All points of a finite representation are
right-scattered, so the delta derivative is always a forward difference
quotient and the delta integral a graininess-weighted sum.

Boundary conventions: the forward jump fixes the maximum and the backward
jump fixes the minimum, hence ``mu`` vanishes at the last point and the delta
derivative is undefined there (the scale minus its last point is the domain
of differentiation, reachable through :meth:`TimeScale.kappa_last`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ScaleMismatchError

__all__ = ["DEDUP_RTOL", "TimeScale", "GridFunction"]

#: Constructor points closer than this (relative) tolerance collapse into one,
#: so point identity is by index and never by floating-point comparison.
DEDUP_RTOL = 1e-12
_INDEX_RTOL = 1e-9  # relative distance at which ``index_of`` accepts a point
_UNIFORM_RTOL = 1e-12  # gap spread, relative to the span, of a uniform sampling
_INTEGER_ATOL = 1e-9  # distance of an integer-grid point from its integer


def _integer(name: str, value) -> int:
    """``value`` as an ``int``: an integral float such as ``3.0`` passes, a
    value that is not integral or not finite raises ``ValueError`` naming
    ``name``, where ``int()`` would truncate it or raise ``OverflowError``."""
    if isinstance(value, (int, np.integer)):
        return int(value)
    v = float(value)
    if not v.is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(v)


def _dedupe(points: np.ndarray) -> np.ndarray:
    kept = [float(points[0])]
    for p in points[1:]:
        p = float(p)
        if p - kept[-1] > DEDUP_RTOL * max(1.0, abs(p), abs(kept[-1])):
            kept.append(p)
    return np.asarray(kept, dtype=float)


@dataclass(frozen=True, eq=False)
class TimeScale:
    """Strictly increasing finite points of a bounded time scale.

    ``dense`` is True when the points sample a dense interval; only
    :meth:`uniform` sets it.  The flag affects reporting, the dynamics slack
    of ``objective_control`` and the admissibility of the classical-limit
    evaluators, never the arithmetic of the operators.
    """

    points: np.ndarray
    dense: bool = False

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("a time scale needs at least two points")
        if not np.isfinite(pts).all():
            raise ValueError("time scale points must be finite")
        if not np.all(np.diff(pts) > 0.0):
            raise ValueError("time scale points must be strictly increasing")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "dense", bool(self.dense))

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_points(cls, points: Iterable[float]) -> "TimeScale":
        """Explicit discrete point set; input is sorted and near-duplicates
        are merged.  A point that is not finite raises, before the merge
        could drop it."""
        pts = np.sort(np.asarray(list(points), dtype=float))
        if pts.size == 0:
            raise ValueError("empty point list")
        if not np.isfinite(pts).all():
            raise ValueError("time scale points must be finite")
        pts = _dedupe(pts)
        return cls(pts)

    @classmethod
    def integer_range(cls, a: int, b: int) -> "TimeScale":
        """Integer grid ``a, a+1, ..., b``."""
        a, b = _integer("a", a), _integer("b", b)
        if b <= a:
            raise ValueError("integer grid needs a < b")
        pts = np.arange(a, b + 1, dtype=float)
        return cls(pts)

    @classmethod
    def uniform(cls, a: float, b: float, n: int) -> "TimeScale":
        """Uniform ``n``-point sampling of the dense interval ``[a, b]``."""
        n = _integer("n", n)
        if n < 2:
            raise ValueError("uniform sampling needs at least two points")
        if not b > a:
            raise ValueError("uniform sampling needs a < b")
        if not math.isfinite(b - a):
            raise ValueError("uniform sampling needs a finite span b - a")
        pts = np.linspace(float(a), float(b), n)
        return cls(pts, dense=True)

    @classmethod
    def q_grid(cls, q: float, k_min: int, k_max: int, include_zero: bool = False) -> "TimeScale":
        """Geometric grid ``q**k`` for ``k_min <= k <= k_max``, optionally with 0.

        With ``include_zero`` the graininess of the 0-point is the smallest
        positive point, by the forward-jump definition.
        """
        q = float(q)
        k_min, k_max = _integer("k_min", k_min), _integer("k_max", k_max)
        if q <= 1.0:
            raise ValueError("q-grid needs q > 1")
        if k_max < k_min:
            raise ValueError("q-grid needs k_min <= k_max")
        try:
            pts = [q**k for k in range(k_min, k_max + 1)]
        except OverflowError:
            raise ValueError("q-grid points overflow") from None
        if include_zero:
            pts = [0.0] + pts
        if len(pts) < 2:
            raise ValueError("q-grid needs at least two points")
        arr = np.asarray(pts, dtype=float)
        return cls(arr)

    # -- basic queries -----------------------------------------------------

    @property
    def n(self) -> int:
        return int(self.points.size)

    def __len__(self) -> int:
        return self.n

    @property
    def a(self) -> float:
        return float(self.points[0])

    @property
    def b(self) -> float:
        return float(self.points[-1])

    def matches(self, other: "TimeScale") -> bool:
        """Same point set (exact equality; points are index-identified)."""
        return self is other or np.array_equal(self.points, other.points)

    def index_of(self, t: float) -> int:
        """Index of the point equal to ``t`` up to a relative 1e-9; raises
        otherwise."""
        i = int(np.argmin(np.abs(self.points - t)))
        if abs(self.points[i] - t) <= _INDEX_RTOL * max(1.0, abs(t)):
            return i
        raise ValueError(f"{t!r} is not a point of this time scale")

    # -- jump operators ----------------------------------------------------

    def _check_index(self, i: int) -> int:
        i = int(i)
        if not 0 <= i < self.n:
            raise IndexError(f"point index {i} out of range [0, {self.n})")
        return i

    def sigma(self, i: int) -> int:
        """Forward jump: next point's index; the last index maps to itself."""
        i = self._check_index(i)
        return min(i + 1, self.n - 1)

    def rho(self, i: int) -> int:
        """Backward jump: previous point's index; the first maps to itself."""
        i = self._check_index(i)
        return max(i - 1, 0)

    def mu(self, i: int) -> float:
        """Graininess ``points[sigma(i)] - points[i]``; zero at the last point."""
        i = self._check_index(i)
        return float(self.points[self.sigma(i)] - self.points[i])

    @property
    def mu_values(self) -> np.ndarray:
        """Graininess at every point, zero at the last.

        Computed on each access, so a kept scale holds no second array of
        its size.
        """
        mu = np.zeros(self.n)
        np.subtract(self.points[1:], self.points[:-1], out=mu[:-1])
        return mu

    def kappa_last(self) -> int:
        """Index of the last point where the delta derivative is defined."""
        return self.n - 2

    def is_regular(self) -> bool:
        """Both jump compositions are the identity, up to the boundary conventions.

        At the minimum the backward jump is fixed and at the maximum the
        forward jump is fixed, so those two forced compositions are exempt.
        On the indices of a finite representation ``sigma(i) = i + 1`` below
        the maximum and ``rho(i) = i - 1`` above the minimum.  So
        ``sigma(rho(i)) = i`` for ``i >= 1`` and ``rho(sigma(i)) = i`` for
        ``i <= n - 2``, and every finite representation is regular.
        """
        return True

    def is_uniform_sampling(self) -> bool:
        """Flagged dense and equally spaced: a usable real-line surrogate."""
        if not self.dense:
            return False
        gaps = np.diff(self.points)
        span = self.b - self.a
        return bool(np.max(np.abs(gaps - gaps[0])) <= _UNIFORM_RTOL * max(1.0, span))

    def is_integer_grid(self) -> bool:
        rounded = np.round(self.points)
        if np.max(np.abs(self.points - rounded)) > _INTEGER_ATOL:
            return False
        return bool(np.all(np.diff(rounded) == 1.0))


@dataclass(frozen=True, eq=False, slots=True)
class GridFunction:
    """One real value per point of a :class:`TimeScale`."""

    scale: TimeScale
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.scale.points.shape:
            raise ValueError("grid function needs exactly one value per scale point")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_callable(cls, scale: TimeScale, fn: Callable[[float], float]) -> "GridFunction":
        return cls(scale, np.asarray([fn(float(t)) for t in scale.points]))

    @classmethod
    def from_values(cls, scale: TimeScale, values: Sequence[float]) -> "GridFunction":
        return cls(scale, np.asarray(values, dtype=float))

    def __call__(self, i: int) -> float:
        return float(self.values[self.scale._check_index(i)])

    def delta_derivative(self, i: int) -> float:
        """Forward difference quotient ``(f(sigma(t)) - f(t)) / mu(t)``.

        Undefined past :meth:`TimeScale.kappa_last`: the maximal point has no
        forward step to difference against.
        """
        i = self.scale._check_index(i)
        if i > self.scale.kappa_last():
            raise ValueError(
                f"delta derivative undefined at index {i}: beyond the "
                f"differentiation domain (last admissible index "
                f"{self.scale.kappa_last()})"
            )
        return float((self.values[i + 1] - self.values[i]) / self.scale.mu(i))

    @property
    def delta_values(self) -> np.ndarray:
        """Delta derivative at every admissible index (length ``n - 1``).

        Computed on each access, so a kept grid function holds no second
        array of its size.
        """
        out = np.diff(self.values) / np.diff(self.scale.points)
        out.setflags(write=False)
        return out

    def delta_integral(self, i: int, j: int) -> float:
        """Graininess-weighted sum of values over point indices ``[i, j)``.

        Orientation is the caller's business: ``i <= j`` is required.
        """
        i = self.scale._check_index(i)
        j = self.scale._check_index(j)
        if j < i:
            raise ValueError(f"reversed integration bounds ({i} > {j})")
        mu = self.scale.mu_values
        return math.fsum(mu[k] * self.values[k] for k in range(i, j))


def require_same_scale(a: GridFunction, b: GridFunction, what: str = "grid functions") -> None:
    if not a.scale.matches(b.scale):
        raise ScaleMismatchError(f"{what} live on different time scales")
