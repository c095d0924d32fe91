"""Operator semantics of the finite time-scale representation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tsvar as tv
from helpers import random_scale


@pytest.fixture
def zgrid():
    return tv.TimeScale.integer_range(0, 3)


@pytest.fixture
def qgrid():
    return tv.TimeScale.q_grid(2.0, 0, 2)  # {1, 2, 4}


class TestJumps:
    def test_sigma_is_successor_on_integers(self, zgrid):
        assert zgrid.sigma(1) == 2
        assert zgrid.points[zgrid.sigma(1)] == 2.0

    def test_sigma_fixes_maximum(self, zgrid):
        assert zgrid.sigma(3) == 3

    def test_sigma_scales_by_q(self, qgrid):
        i = qgrid.index_of(2.0)
        assert qgrid.points[qgrid.sigma(i)] == 4.0

    def test_rho_is_predecessor_on_integers(self, zgrid):
        assert zgrid.rho(2) == 1

    def test_rho_fixes_minimum(self, zgrid):
        assert zgrid.rho(0) == 0

    def test_rho_divides_by_q(self, qgrid):
        i = qgrid.index_of(4.0)
        assert qgrid.points[qgrid.rho(i)] == 2.0

    def test_index_out_of_range(self, zgrid):
        with pytest.raises(IndexError):
            zgrid.sigma(4)
        with pytest.raises(IndexError):
            zgrid.rho(-7)


class TestGraininess:
    def test_unit_on_integers(self, zgrid):
        assert zgrid.mu(1) == 1.0

    def test_zero_at_maximum(self, zgrid):
        assert zgrid.mu(3) == 0.0

    def test_q_scale_value(self, qgrid):
        assert qgrid.mu(qgrid.index_of(2.0)) == 2.0  # (q-1)*t with q = 2

    def test_zero_point_graininess_is_smallest_positive(self):
        ts = tv.TimeScale.q_grid(2.0, 0, 2, include_zero=True)
        assert ts.mu(0) == 1.0


class TestStructure:
    def test_integer_grid_is_regular(self, zgrid):
        assert zgrid.is_regular()

    def test_uniform_sampling_is_regular(self):
        assert tv.TimeScale.uniform(0, 1, 11).is_regular()

    def test_mixed_scale_is_regular(self):
        # enumerating both jump compositions over all four points
        ts = tv.TimeScale.from_points([0, 1, 2, 4])
        assert ts.is_regular()

    def test_kappa_last(self, zgrid, qgrid):
        assert zgrid.kappa_last() == 2
        n = 11
        assert tv.TimeScale.uniform(0, 1, n).kappa_last() == n - 2
        assert qgrid.kappa_last() == qgrid.index_of(2.0)

    def test_constructor_rejects_short_scales(self):
        with pytest.raises(ValueError):
            tv.TimeScale.from_points([1.0])

    @pytest.mark.parametrize("build", [
        lambda: tv.TimeScale.from_points([0.0, 0.5, 1.0, math.nan]),
        lambda: tv.TimeScale.from_points([-math.inf, 0.0, 1.0]),
        lambda: tv.TimeScale.q_grid(math.inf, 0, 1),
        lambda: tv.TimeScale(np.array([0.0, 1.0, math.inf])),
    ], ids=["points nan", "points -inf", "qgrid q inf", "constructor inf"])
    def test_non_finite_points_are_refused(self, build):
        # a NaN point used to be merged away without a word, and q = inf
        # made the scale [1, inf]
        with pytest.raises(ValueError, match="time scale points must be finite"):
            build()

    def test_unbounded_constructor_arguments_are_refused(self):
        with pytest.raises(ValueError, match="finite span"):
            tv.TimeScale.uniform(0.0, math.inf, 5)
        with pytest.raises(ValueError, match="finite span"):
            tv.TimeScale.uniform(-1e308, 1e308, 5)
        with pytest.raises(ValueError, match="q-grid points overflow"):
            tv.TimeScale.q_grid(1.5, 0, 2000)

    # ``int()`` used to truncate these in silence, or raise OverflowError
    @pytest.mark.parametrize("args, name", [
        ((0.5, 3), "a"), ((0, 3.5), "b"), ((0, math.inf), "b"), ((math.nan, 3), "a"),
    ])
    def test_integer_range_refuses_counts_that_are_not_integers(self, args, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            tv.TimeScale.integer_range(*args)

    @pytest.mark.parametrize("n", [2.7, math.inf, math.nan])
    def test_uniform_refuses_counts_that_are_not_integers(self, n):
        with pytest.raises(ValueError, match="^n must be an integer, got "):
            tv.TimeScale.uniform(0.0, 1.0, n)

    @pytest.mark.parametrize("args, name", [
        ((0.5, 2), "k_min"), ((0, 2.9), "k_max"), ((0, math.inf), "k_max"),
        ((-math.inf, 0), "k_min"), ((0, math.nan), "k_max"),
    ])
    def test_q_grid_refuses_exponents_that_are_not_integers(self, args, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            tv.TimeScale.q_grid(2.0, *args)

    def test_integral_floats_still_load(self):
        assert tv.TimeScale.integer_range(0.0, 3.0).points.tolist() == [0.0, 1.0, 2.0, 3.0]
        assert tv.TimeScale.uniform(0, 1, 3.0).points.tolist() == [0.0, 0.5, 1.0]
        assert tv.TimeScale.q_grid(2, np.float64(0), 2.0).points.tolist() == [1.0, 2.0, 4.0]
        assert tv.TimeScale.integer_range(np.int64(1), 2).n == 2

    @pytest.mark.parametrize("build", [
        lambda: tv.TimeScale.integer_range(-2, 4),
        lambda: tv.TimeScale.uniform(0.0, 1.0, 7),
        lambda: tv.TimeScale.q_grid(1.5, -2, 3, include_zero=True),
        lambda: tv.TimeScale.from_points([0.0, 0.1, 0.5, 2.0, 2.25]),
        lambda: tv.TimeScale(np.array([0.0, 1.0])),
    ], ids=["integers", "uniform", "qgrid", "explicit", "two points"])
    def test_every_jump_composition_is_the_identity(self, build):
        # why ``is_regular`` is True without a check: all 2n compositions hold
        ts = build()
        assert all(ts.sigma(ts.rho(i)) == i for i in range(1, ts.n))
        assert all(ts.rho(ts.sigma(i)) == i for i in range(ts.n - 1))
        assert ts.is_regular() is True

    def test_constructor_dedupes_close_points(self):
        ts = tv.TimeScale.from_points([0.0, 1.0, 1.0 + 1e-14, 2.0])
        assert ts.n == 3

    def test_points_are_immutable(self, zgrid):
        with pytest.raises(ValueError):
            zgrid.points[0] = 5.0

    def test_uniform_flags_dense(self, zgrid):
        assert tv.TimeScale.uniform(0, 1, 5).is_uniform_sampling()
        assert not zgrid.is_uniform_sampling()
        assert zgrid.is_integer_grid()

    @pytest.mark.parametrize("build, dense", [
        (lambda: tv.TimeScale.uniform(0.0, 1.0, 5), True),
        (lambda: tv.TimeScale.integer_range(0, 4), False),
        (lambda: tv.TimeScale.from_points([0.0, 0.5, 2.0]), False),
        (lambda: tv.TimeScale.q_grid(2.0, 0, 3, include_zero=True), False),
        (lambda: tv.TimeScale(np.linspace(0.0, 1.0, 5)), False),
        (lambda: tv.TimeScale(np.linspace(0.0, 1.0, 5), dense=True), True),
    ], ids=["uniform", "integers", "explicit", "qgrid", "raw", "raw dense"])
    def test_density_is_one_flag(self, build, dense):
        ts = build()
        assert ts.dense is dense
        assert ts.is_uniform_sampling() is dense

    def test_raw_constructor_keeps_the_equal_gap_test(self):
        # a scale flagged dense is a real-line surrogate only if equally spaced
        assert not tv.TimeScale(np.array([0.0, 0.25, 1.0]), dense=True).is_uniform_sampling()

    @pytest.mark.parametrize("dense", [np.ones(5, dtype=bool), np.zeros(5, dtype=bool)],
                             ids=["dense", "scattered"])
    def test_a_per_point_mask_is_refused(self, dense):
        # the former per-point mask, one flag per point, does not load
        with pytest.raises(ValueError, match="truth value of an array"):
            tv.TimeScale(np.linspace(0.0, 1.0, 5), dense)


class TestDeltaDerivative:
    def test_square_on_integers(self, zgrid):
        f = tv.GridFunction.from_callable(zgrid, lambda t: t * t)
        assert f.delta_derivative(1) == 3.0

    def test_identity_everywhere(self, qgrid):
        f = tv.GridFunction.from_callable(qgrid, lambda t: t)
        for i in range(qgrid.kappa_last() + 1):
            assert f.delta_derivative(i) == 1.0

    def test_matches_jackson_derivative(self, qgrid):
        # (f(qt) - f(t)) / ((q - 1) t) for f = t^2 at t = 2: (16-4)/2
        f = tv.GridFunction.from_callable(qgrid, lambda t: t * t)
        assert f.delta_derivative(qgrid.index_of(2.0)) == 6.0

    def test_rejected_past_kappa(self, zgrid):
        f = tv.GridFunction.from_callable(zgrid, lambda t: t)
        with pytest.raises(ValueError):
            f.delta_derivative(3)


class TestDeltaIntegral:
    @pytest.mark.parametrize("k", [1.0, 2.5])
    def test_weighted_square_on_integers(self, zgrid, k):
        f = tv.GridFunction.from_callable(zgrid, lambda t: 2 * t * t * k)
        assert f.delta_integral(0, 3) == pytest.approx(10.0 * k, abs=1e-14)

    def test_zero_integrand(self, zgrid):
        f = tv.GridFunction(zgrid, np.zeros(4))
        assert f.delta_integral(0, 3) == 0.0

    def test_zero_union_q_points(self):
        ts = tv.TimeScale.from_points([0, 1, 2, 4])
        f = tv.GridFunction.from_callable(ts, lambda t: 2 * t * t)
        assert f.delta_integral(0, 3) == 18.0

    def test_reversed_bounds_rejected(self, zgrid):
        f = tv.GridFunction(zgrid, np.zeros(4))
        with pytest.raises(ValueError):
            f.delta_integral(2, 1)

    def test_integer_scale_is_plain_sum(self):
        ts = tv.TimeScale.integer_range(0, 5)
        f = tv.GridFunction.from_callable(ts, lambda t: math.sin(t) + 2)
        expected = sum(math.sin(k) + 2 for k in range(5))
        assert f.delta_integral(0, 5) == pytest.approx(expected, rel=1e-15)

    def test_q_scale_is_jackson_sum(self, qgrid):
        f = tv.GridFunction.from_callable(qgrid, lambda t: t + 1)
        expected = sum((q := 2.0 - 1.0) * t * (t + 1) for t in (1.0, 2.0))
        assert f.delta_integral(0, 2) == expected


class TestCalculusIdentities:
    """Telescoping identities, exercised across random scales and values."""

    def test_single_step_integral(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            ts = random_scale(rng, max_points=10, min_gap=0.05)
            f = tv.GridFunction(ts, rng.uniform(-2, 2, size=ts.n))
            for i in range(ts.kappa_last() + 1):
                assert f.delta_integral(i, ts.sigma(i)) == ts.mu(i) * f.values[i]

    def test_integration_by_parts(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            ts = random_scale(rng, max_points=12, min_gap=0.05)
            fv = rng.uniform(-2, 2, size=ts.n)
            gv = rng.uniform(-2, 2, size=ts.n)
            f = tv.GridFunction(ts, fv)
            g = tv.GridFunction(ts, gv)
            lhs = math.fsum(
                fv[i + 1] * g.delta_derivative(i) * ts.mu(i) for i in range(ts.n - 1)
            )
            rhs = fv[-1] * gv[-1] - fv[0] * gv[0] - math.fsum(
                f.delta_derivative(i) * gv[i] * ts.mu(i) for i in range(ts.n - 1)
            )
            assert abs(lhs - rhs) <= 1e-12

    def test_fundamental_theorem(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            ts = random_scale(rng, max_points=12, min_gap=0.05)
            fv = rng.uniform(-3, 3, size=ts.n)
            f = tv.GridFunction(ts, fv)
            deriv = tv.GridFunction(ts, np.append(f.delta_values, 0.0))
            assert deriv.delta_integral(0, ts.n - 1) == pytest.approx(
                fv[-1] - fv[0], abs=1e-12
            )

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_additivity(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        ts = random_scale(rng, max_points=10, min_gap=0.05)
        f = tv.GridFunction(ts, rng.uniform(-2, 2, size=ts.n))
        i = data.draw(st.integers(0, ts.n - 1))
        j = data.draw(st.integers(i, ts.n - 1))
        k = data.draw(st.integers(j, ts.n - 1))
        total = f.delta_integral(i, k)
        assert total == pytest.approx(
            f.delta_integral(i, j) + f.delta_integral(j, k), abs=1e-13
        )

    def test_forward_difference_on_integers(self):
        ts = tv.TimeScale.integer_range(-2, 4)
        f = tv.GridFunction.from_callable(ts, lambda t: t**3 - t)
        for i in range(ts.n - 1):
            t = ts.points[i]
            assert f.delta_derivative(i) == ((t + 1) ** 3 - (t + 1)) - (t**3 - t)
