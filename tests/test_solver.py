"""Direct solvers, the Newton stationarity solver, the oracle, and sweeps."""

import math
import tracemalloc

import numpy as np
import pytest

import tsvar as tv
import tsvar.solver as solver
from tsvar.solver import (
    _bfgs,
    _consistent_state,
    _control_value_and_grad,
    _eliminate,
    _Hessian,
    _shifted_newton_step,
    _variational_newton,
    _variational_value_and_grad,
)
from helpers import (
    admissible_grid,
    dense_bfgs,
    endpoint_penalty_control,
    endpoint_tracking_control,
    minimal_length_problem,
    minimal_slope_root,
    random_quadratic_problem,
    random_scale,
    reference_costate,
)

# near the limit of what value-based line searches resolve; analytic
# gradients keep this attainable
TIGHT = tv.SolveOptions(max_iterations=3000, gradient_tolerance=1e-11)


class TestSolveVariational:
    def test_penalized_length_slope(self):
        p = minimal_length_problem(1.0, 100)
        sol = tv.solve_variational(p, tv.SolveOptions(max_iterations=2000))
        assert sol.converged
        slopes = sol.x.delta_values
        assert np.max(np.abs(slopes - minimal_slope_root(1.0))) <= 1e-6

    def test_penalized_length_mesh_convergence(self):
        # the transcription happens to be exact for this family: with equal
        # interval slopes the objective collapses to the one-dimensional
        # boundary equation at every mesh, so the first-order envelope C/N
        # holds with the error at solver-tolerance level
        root = minimal_slope_root(3.0)
        opts = tv.SolveOptions(max_iterations=2000)
        for n in (25, 50, 100, 200):
            sol = tv.solve_variational(minimal_length_problem(3.0, n), opts)
            assert sol.converged
            assert abs(sol.slope - root) <= max(1.0 / n, 1e-7)

    def test_two_interval_quadratic_against_oracle(self):
        ts = tv.TimeScale.integer_range(0, 2)
        p = tv.VariationalProblem(ts, tv.parse("v^2 + (z-1)^2"), 0.0)
        sol = tv.solve_variational(p, TIGHT)
        oracle = tv.brute_force_oracle(p)
        # hand elimination: x1 = 0.4, x2 = 0.8
        assert oracle.x.values == pytest.approx([0.0, 0.4, 0.8], abs=1e-12)
        assert np.max(np.abs(sol.x.values - oracle.x.values)) <= 1e-9

    def test_pure_slope_cost_returns_constant(self):
        ts = tv.TimeScale.from_points([0, 0.4, 1.1, 2.0])
        p = tv.VariationalProblem(ts, tv.parse("v^2"), 0.0)
        sol = tv.solve_variational(p, TIGHT)
        assert np.max(np.abs(sol.x.values)) <= 1e-10
        assert sol.objective_value <= 1e-20

    def test_descent_across_accepted_steps(self):
        p = minimal_length_problem(2.0, 60)
        seen = []
        tv.solve_variational(p, tv.SolveOptions(max_iterations=1500),
                             on_accept=lambda y, J: seen.append(J))
        assert len(seen) > 3
        # non-increasing up to the rounding slack of the acceptance test
        assert all(b <= a + 1e-14 * (1 + abs(a)) for a, b in zip(seen, seen[1:]))

    def test_domain_errors_shrink_line_search_steps(self):
        # sqrt(x+2) is undefined past x = -2; aggressive early steps get
        # rejected by the domain guard and the solve still converges
        ts = tv.TimeScale.integer_range(0, 2)
        p = tv.VariationalProblem(ts, tv.parse("v^2 + (sqrt(x+2)-1)^2"), 0.0)
        sol = tv.solve_variational(p, tv.SolveOptions(max_iterations=500))
        assert sol.converged
        assert np.all(sol.x.values > -2.0)
        assert sol.report.sup_norm <= 1e-7

    def test_non_convergence_is_flagged(self):
        p = minimal_length_problem(1.0, 60)
        sol = tv.solve_variational(p, tv.SolveOptions(max_iterations=1))
        assert not sol.converged
        assert sol.message

    def test_report_recomputed_from_returned_grids(self):
        p = minimal_length_problem(1.0, 30)
        sol = tv.solve_variational(p, tv.SolveOptions(max_iterations=1500))
        fresh = tv.variational_residuals(p, sol.x)
        assert sol.report.sup_norm == fresh.sup_norm

    def test_gradient_endpoint_coordinate_is_transversality(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            p = random_quadratic_problem(rng)
            x = admissible_grid(rng, p)
            _, grad = _variational_value_and_grad(p)(x.values[1:])
            tc = tv.transversality_residual(p, x)
            assert grad[-1] == pytest.approx(tc, abs=1e-10)

    def test_gradient_interior_is_scaled_el_residual(self):
        rng = np.random.default_rng(18)
        p = random_quadratic_problem(rng)
        x = admissible_grid(rng, p)
        _, grad = _variational_value_and_grad(p)(x.values[1:])
        el = tv.euler_lagrange_residual(p, x)
        mu = p.scale.mu_values
        for i in range(p.scale.n - 2):
            assert grad[i] == pytest.approx(-mu[i] * el[i], abs=1e-10)


def dense(h):
    """The bordered-tridiagonal Hessian as a full matrix."""
    k = h.diag.size
    full = np.zeros((k + 1, k + 1))
    i = np.arange(k)
    full[i, i] = h.diag
    full[i[:-1], i[1:]] = full[i[1:], i[:-1]] = h.off
    full[i, k] = full[k, i] = h.border
    full[k, k] = h.corner
    return full


def random_hessian(rng, k):
    return _Hessian(
        rng.uniform(2.0, 3.0, k), rng.uniform(-1.0, 1.0, k - 1),
        rng.uniform(-1.0, 1.0, k), float(rng.uniform(1.0, 3.0)),
    )


class TestStructuredNewton:
    def test_hessian_matches_central_differences_of_the_gradient(self):
        f = tv.parse("sqrt(1 + v^2) + x*v*z + cos(x)*z + t*x^2 + (z - 1)^2*v^2")
        rng = np.random.default_rng(53)
        eps = 1e-6
        worst = 0.0
        for _ in range(10):
            p = tv.VariationalProblem(random_scale(rng), f, float(rng.uniform(-1, 1)))
            grad = lambda y: _variational_value_and_grad(p)(y)[1]  # noqa: E731
            y = rng.uniform(-1.0, 1.0, p.scale.n - 1)
            g, h = _variational_newton(p)(y)
            assert np.array_equal(g, grad(y))
            fd = np.empty((y.size, y.size))
            for j in range(y.size):
                e = np.zeros(y.size)
                e[j] = eps
                fd[:, j] = (grad(y + e) - grad(y - e)) / (2 * eps)
            worst = max(worst, float(np.max(np.abs(dense(h) - fd))))
        assert worst <= 1e-7

    @pytest.mark.parametrize("k", [1, 2, 7, 40])
    def test_elimination_matches_dense_solve(self, k):
        rng = np.random.default_rng(k)
        h = random_hessian(rng, k)
        r = rng.standard_normal(k + 1)
        for tau in (0.0, 0.75):
            d, pivots = _eliminate(h, r, tau)
            want = np.linalg.solve(dense(h) + tau * np.eye(k + 1), r)
            assert len(pivots) == k + 1
            assert np.max(np.abs(d - want)) <= 1e-10 * max(1.0, np.max(np.abs(want)))

    def test_elimination_stops_at_a_non_positive_pivot(self):
        h = _Hessian(np.array([2.0, -1.0, 3.0]), np.zeros(2), np.zeros(3), 1.0)
        d, pivots = _eliminate(h, np.ones(4), positive=True)
        assert d is None and pivots == [2.0, -1.0]
        d, _ = _eliminate(h, np.ones(4))
        assert d == pytest.approx([0.5, -1.0, 1 / 3, 1.0])

    def test_shift_gives_a_descent_direction_on_an_indefinite_hessian(self):
        rng = np.random.default_rng(61)
        for k in (1, 5, 30):
            h = random_hessian(rng, k)
            h.diag[0] = -1.0
            g = rng.standard_normal(k + 1)
            d = _shifted_newton_step(h, g)
            assert float(g @ d) < 0.0
            # d solves a shifted system H + tau I with tau making it positive definite
            tau = float(np.median((-g - dense(h) @ d) / d))
            assert np.allclose(dense(h) @ d + tau * d, -g)
            assert np.min(np.linalg.eigvalsh(dense(h) + tau * np.eye(k + 1))) > 0.0

    @pytest.mark.parametrize("n", [180, 3200, 20000])
    def test_penalized_length_takes_few_newton_steps(self, n):
        # dense BFGS needed about n iterations (the Hessian's condition number
        # grows like n^2); Newton's count does not grow with n, and the
        # largest mesh would not fit an n x n matrix in memory
        sol = tv.solve_variational(minimal_length_problem(3.0, n))
        assert sol.converged
        assert sol.iterations <= 8
        assert abs(sol.slope - minimal_slope_root(3.0)) <= 1e-7

    def test_non_convex_integrand_converges(self):
        ts = tv.TimeScale.integer_range(0, 8)
        p = tv.VariationalProblem(ts, tv.parse("sqrt(1+v^2) + 2*(z-1)^2 + cos(x)"), 0.0)
        sol = tv.solve_variational(p)
        assert sol.converged
        assert sol.report.sup_norm <= 1e-8
        # a local minimizer: the exact Hessian there is positive definite
        _, h = _variational_newton(p)(sol.x.values[1:])
        assert np.min(np.linalg.eigvalsh(dense(h))) > 0.0


class TestSolveStationarity:
    def test_penalized_length_from_flat_start(self):
        p = minimal_length_problem(2.0, 100)
        x0 = tv.GridFunction(p.scale, np.zeros(100))
        sol = tv.solve_stationarity(p, tv.SolveOptions(), x0)
        assert sol.converged
        assert abs(sol.slope - minimal_slope_root(2.0)) <= 1e-7

    def test_quadratic_converges_in_two_iterations(self):
        rng = np.random.default_rng(23)
        p = random_quadratic_problem(rng, random_scale(rng, max_points=6))
        sol = tv.solve_stationarity(p, tv.SolveOptions(gradient_tolerance=1e-8))
        assert sol.converged
        assert sol.iterations <= 2

    def test_cross_method_agreement(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            p = random_quadratic_problem(rng, random_scale(rng, max_points=5))
            a = tv.solve_variational(p, TIGHT)
            b = tv.solve_stationarity(p, TIGHT)
            assert a.converged and b.converged
            assert np.max(np.abs(a.x.values - b.x.values)) <= 1e-7

    def test_singular_jacobian_reports_condition(self):
        ts = tv.TimeScale.integer_range(0, 3)
        p = tv.VariationalProblem(ts, tv.parse("v"), 0.0)
        with pytest.raises(tv.SingularJacobianError, match="cond"):
            tv.solve_stationarity(p, tv.SolveOptions())


class TestSolveControl:
    def test_integer_endpoint_penalty_exact(self):
        p = endpoint_penalty_control(tv.TimeScale.integer_range(0, 3))
        sol = tv.solve_control(p, TIGHT)
        expected = 5 / 16 * p.scale.points
        assert sol.converged
        assert np.max(np.abs(sol.x.values - expected)) <= 1e-12
        assert sol.objective_value == pytest.approx(0.3125, abs=1e-12)
        assert np.max(np.abs(sol.lam.values[:-1] + 5 / 8)) <= 1e-12
        assert math.isnan(sol.lam.values[-1]) and math.isnan(sol.u.values[-1])

    def test_tracking_problem_discrete_optimum(self):
        # exact closed form of the discrete problem: zero control and
        # end value 1/(1+h) from the left-sum of the time weight
        n = 201
        p = endpoint_tracking_control(n)
        u0 = tv.GridFunction(p.scale, np.full(n, 0.5))
        sol = tv.solve_control(p, TIGHT, u0=u0)
        h = 2.0 / (n - 1)
        assert sol.converged
        assert np.nanmax(np.abs(sol.u.values)) <= 1e-9
        assert sol.x.values[-1] == pytest.approx(1.0 / (1.0 + h), abs=1e-9)
        cont = (p.scale.points**2 + 1) / 2
        assert np.max(np.abs(sol.x.values - cont)) <= 1.5e-2

    def test_tracking_problem_converges_first_order(self):
        errs = []
        for n in (51, 101, 201):
            sol = tv.solve_control(endpoint_tracking_control(n), TIGHT)
            errs.append(abs(sol.x.values[-1] - 1.0))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] == pytest.approx(errs[1] / 2, rel=0.1)

    def test_zero_problem(self):
        ts = tv.TimeScale.from_points([0, 1, 2.5])
        p = tv.ControlProblem(ts, tv.parse("u^2"), tv.parse("u"), 0.0)
        sol = tv.solve_control(p, TIGHT)
        assert np.max(np.abs(sol.x.values)) <= 1e-12
        assert np.nanmax(np.abs(sol.u.values)) <= 1e-12

    def test_state_dependent_dynamics(self):
        # implicit per-step solve: g depends on the shifted state
        ts = tv.TimeScale.uniform(0, 1, 41)
        p = tv.ControlProblem(ts, tv.parse("u^2 + (x-2)^2"), tv.parse("u + x/2"), 1.0)
        sol = tv.solve_control(p, tv.SolveOptions(max_iterations=2000))
        assert sol.converged
        assert sol.report.sup_norm <= 1e-7

    def test_nonlinear_end_value_coupling(self):
        # quadratic z-dependence in g: the end-value consistency solve has to
        # fall back from the affine probe to secant iteration
        ts = tv.TimeScale.uniform(0, 1, 51)
        p = tv.ControlProblem(ts, tv.parse("u^2 + (z-2)^2"), tv.parse("u + z^2*t/4"), 1.0)
        sol = tv.solve_control(p, tv.SolveOptions(max_iterations=2000))
        assert sol.converged
        assert sol.report.sup_norm <= 1e-8
        assert not sol.verdict.sufficient  # nonlinear dynamics

    def test_implicit_step_divergence_reported(self):
        # mu * g_x = 2 > 1: the per-step fixed point cannot contract
        ts = tv.TimeScale.integer_range(0, 3)
        p = tv.ControlProblem(ts, tv.parse("u^2"), tv.parse("u + 2*x"), 0.5)
        with pytest.raises(tv.SolveError, match="implicit state step"):
            tv.solve_control(p, tv.SolveOptions())

    def test_report_is_hamiltonian_family(self):
        p = endpoint_penalty_control(tv.TimeScale.integer_range(0, 3))
        sol = tv.solve_control(p, TIGHT)
        assert sol.report.state_residuals is not None
        assert sol.report.costate_residuals is not None
        assert sol.report.stationarity_residuals is not None
        assert sol.report.el_residuals is None

    def test_restarts_count_in_iterations_and_message(self):
        ts = tv.TimeScale.uniform(0, 1, 41)
        p = tv.ControlProblem(ts, tv.parse("u^2 + (x-2)^2"), tv.parse("u + x/2"), 1.0)
        sol = tv.solve_control(p, tv.SolveOptions(max_iterations=1))
        assert not sol.converged
        assert sol.iterations == 3  # the first attempt and two restarts
        assert "2 restarts" in sol.message


class TestControlInternals:
    @pytest.mark.parametrize("problem", [
        lambda: endpoint_penalty_control(tv.TimeScale.uniform(0, 1, 41)),
        lambda: endpoint_tracking_control(41),
        lambda: tv.ControlProblem(tv.TimeScale.uniform(0, 1, 41),
                                  tv.parse("u^2 + (x-2)^2"), tv.parse("u + x/2"), 1.0),
    ], ids=["endpoint_penalty", "tracking", "state_dependent"])
    def test_product_form_bfgs_matches_dense_update(self, problem):
        p = problem()
        fun = _control_value_and_grad(p)
        w0 = np.full(p.scale.n - 1, 0.5)
        opts = tv.SolveOptions(max_iterations=2000)
        w, _, _, ok, iters = _bfgs(fun, w0, opts)
        w_ref, _, _, ok_ref, iters_ref = dense_bfgs(fun, w0, opts)
        assert ok and ok_ref
        assert iters == iters_ref
        assert np.max(np.abs(w - w_ref)) <= 1e-10

    def test_control_solve_memory_is_linear_in_n(self):
        # a dense m-by-m inverse Hessian alone would take 82 MB here
        ts = tv.TimeScale.uniform(0, 1, 3200)
        p = tv.ControlProblem(ts, tv.parse("u^2 + x^2 + 3*(z-1)^2"), tv.parse("u"), 0.0)
        tracemalloc.start()
        try:
            sol = tv.solve_control(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sol.converged
        assert peak < 20e6

    def test_state_without_end_value_is_propagated_once(self, monkeypatch):
        ts = tv.TimeScale.uniform(0, 1, 21)
        p = tv.ControlProblem(ts, tv.parse("u^2"), tv.parse("u - 0.5*x"), 1.0)
        original = solver._propagate_state
        results = []

        def counted(*args, **kwargs):
            results.append(original(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(solver, "_propagate_state", counted)
        x, zeta = _consistent_state(p, np.linspace(-1.0, 1.0, ts.n - 1))
        assert len(results) == 1
        assert x is results[0]
        assert zeta == x[-1]

    def test_recover_costate_matches_reference_sweeps(self):
        rng = np.random.default_rng(11)
        f = tv.parse("u^2 + x*z + sin(x)*z^2 + t*u")
        g = tv.parse("u + 0.2*x*z + z*t/4")
        for _ in range(20):
            ts = random_scale(rng, max_points=12, min_gap=0.2)
            p = tv.ControlProblem(ts, f, g, float(rng.uniform(-1, 1)))
            x = rng.uniform(-1.0, 1.0, ts.n)
            u = rng.uniform(-1.0, 1.0, ts.n - 1)
            zeta = float(rng.uniform(-1.0, 1.0))
            lam = tv.recover_costate(p, x, u, zeta)
            assert np.array_equal(lam, reference_costate(p, x, u, zeta))


class TestBruteForceOracle:
    def test_integer_endpoint_penalty(self):
        p = endpoint_penalty_control(tv.TimeScale.integer_range(0, 3))
        sol = tv.brute_force_oracle(p)
        assert sol.x.values == pytest.approx(5 / 16 * p.scale.points, abs=1e-12)
        assert sol.objective_value == pytest.approx(0.3125, abs=1e-13)

    def test_mixed_scale_endpoint_penalty(self):
        # hand elimination of the 3-variable quadratic gives slope 9/37
        ts = tv.TimeScale.from_points([0, 1, 2, 4])
        sol = tv.brute_force_oracle(endpoint_penalty_control(ts))
        assert sol.slope == pytest.approx(9 / 37, abs=1e-13)
        assert sol.x.values == pytest.approx(9 / 37 * ts.points, abs=1e-12)

    def test_pure_slope_cost(self):
        ts = tv.TimeScale.integer_range(0, 4)
        p = tv.VariationalProblem(ts, tv.parse("v^2"), 0.0)
        sol = tv.brute_force_oracle(p)
        assert np.max(np.abs(sol.x.values)) <= 1e-12

    def test_rejects_large_scales(self):
        p = tv.VariationalProblem(
            tv.TimeScale.integer_range(0, 9), tv.parse("v^2"), 0.0
        )
        with pytest.raises(tv.OracleError, match="8"):
            tv.brute_force_oracle(p)

    def test_rejects_nonquadratic_without_opt_in(self):
        p = minimal_length_problem(1.0, 5)
        with pytest.raises(tv.OracleError, match="grid_search"):
            tv.brute_force_oracle(p)

    def test_grid_search_fallback(self):
        ts = tv.TimeScale.integer_range(0, 2)
        p = tv.VariationalProblem(ts, tv.parse("sqrt(1+v^2) + (z-1)^2"), 0.0)
        slow = tv.brute_force_oracle(p, allow_grid_search=True, box=(-2.0, 2.0))
        fast = tv.solve_variational(p, TIGHT)
        assert np.max(np.abs(slow.x.values - fast.x.values)) <= 1e-5

    def test_oracle_agrees_with_both_solvers(self):
        rng = np.random.default_rng(37)
        for _ in range(15):
            p = random_quadratic_problem(rng, random_scale(rng, max_points=8))
            oracle = tv.brute_force_oracle(p)
            direct = tv.solve_variational(p, TIGHT)
            newton = tv.solve_stationarity(p, TIGHT)
            assert direct.converged and newton.converged
            assert np.max(np.abs(direct.x.values - oracle.x.values)) <= 1e-7
            assert np.max(np.abs(newton.x.values - oracle.x.values)) <= 1e-7


class TestSweep:
    def test_slopes_increase_toward_one(self):
        rows = tv.sweep(
            lambda b: minimal_length_problem(b, 60),
            [1.0, 2.0, 15.0],
            tv.SolveOptions(max_iterations=2000),
        )
        assert all(r.converged for r in rows)
        slopes = [r.slope for r in rows]
        assert slopes == sorted(slopes)
        for row in rows:
            assert abs(row.slope - minimal_slope_root(row.value)) <= 1e-6

    def test_single_value_matches_plain_solve(self):
        opts = tv.SolveOptions(max_iterations=2000)
        rows = tv.sweep(lambda b: minimal_length_problem(b, 40), [2.0], opts)
        sol = tv.solve_variational(minimal_length_problem(2.0, 40), opts)
        assert rows[0].objective == pytest.approx(sol.objective_value, rel=1e-12)
        assert rows[0].slope == pytest.approx(sol.slope, abs=1e-9)

    def test_failures_recorded_and_sweep_continues(self):
        def factory(v):
            if v == 2.0:
                raise ValueError("boom")
            return minimal_length_problem(v, 30)

        rows = tv.sweep(factory, [1.0, 2.0, 3.0], tv.SolveOptions(max_iterations=1500))
        assert rows[0].converged and rows[2].converged
        assert not rows[1].converged and math.isnan(rows[1].slope)
        assert rows[1].message == "ValueError: boom"
        assert rows[0].message == rows[2].message == ""

    def test_programming_errors_propagate(self):
        def factory(v):
            if v == 2.0:
                raise TypeError("not a solve failure")
            return minimal_length_problem(v, 30)

        with pytest.raises(TypeError, match="not a solve failure"):
            tv.sweep(factory, [1.0, 2.0, 3.0])

    def test_expression_caches_stay_bounded(self):
        # each value parses a new expression, as the CLI's substitution does,
        # so an unbounded cache would grow with every row
        tv.expr.diff.cache_clear()
        tv.expr.compile_fn.cache_clear()
        ts = tv.TimeScale.integer_range(0, 3)
        rows = tv.sweep(
            lambda w: tv.VariationalProblem(ts, tv.parse(f"v^2 + {w!r}*(z-1)^2 + x^4"), 0.0),
            np.linspace(0.5, 2.0, 300),
        )
        assert all(r.converged for r in rows)
        for cached in (tv.expr.diff, tv.expr.compile_fn):
            info = cached.cache_info()
            assert info.maxsize is not None and info.misses > info.maxsize
            assert info.currsize <= info.maxsize

    def test_large_penalty_limit(self):
        rows = tv.sweep(
            lambda b: minimal_length_problem(b, 60),
            [1.0, 15.0, 1e4],
            tv.SolveOptions(max_iterations=3000),
        )
        assert rows[-1].converged
        assert 0.999 <= rows[-1].slope <= 1.0


class TestSolveOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            tv.SolveOptions(max_iterations=0)
        with pytest.raises(ValueError):
            tv.SolveOptions(gradient_tolerance=0.0)

    def test_converged_solutions_meet_residual_closure(self):
        # residuals are gradient coordinates divided by the graininess, so on
        # scales with gaps >= 0.1 the sup norm stays within 10x the tolerance
        rng = np.random.default_rng(41)
        for _ in range(10):
            p = random_quadratic_problem(rng, random_scale(rng, min_gap=0.1))
            sol = tv.solve_variational(p, tv.SolveOptions(gradient_tolerance=1e-10))
            if sol.converged:
                assert sol.report.sup_norm <= 10 * 1e-10 / 0.1
