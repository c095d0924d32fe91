"""Direct solvers, the Newton stationarity solver, the oracle, and sweeps."""

import gc
import math
from dataclasses import fields
from fractions import Fraction
import tracemalloc

import numpy as np
import pytest

import tsvar as tv
from tsvar.solver import _Core, _riccati_step, _shifted_control_step
from helpers import (
    admissible_grid,
    bisect_root,
    endpoint_penalty_control,
    endpoint_tracking_control,
    hamiltonian_stages,
    minimal_length_problem,
    minimal_slope_root,
    objective_derivatives,
    random_quadratic_control,
    random_quadratic_problem,
    random_scale,
    reference_costate,
    reference_oracle_variational,
    reference_solve_stationarity,
    stationarity_residual,
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
        # the gradient over x[1:] is h_i - h_{i+1} with h_m = 0, so its end
        # coordinate is the last h of the control form g = u
        rng = np.random.default_rng(17)
        for _ in range(20):
            p = random_quadratic_problem(rng)
            x = admissible_grid(rng, p)
            h = stationarity_residual(p, x)
            tc = tv.transversality_residual(p, x)
            assert h[-1] == pytest.approx(tc, abs=1e-10)

    def test_gradient_interior_is_scaled_el_residual(self):
        rng = np.random.default_rng(18)
        p = random_quadratic_problem(rng)
        x = admissible_grid(rng, p)
        h = stationarity_residual(p, x)
        el = tv.euler_lagrange_residual(p, x)
        mu = p.scale.mu_values
        for i in range(p.scale.n - 2):
            assert (h[i + 1] - h[i]) / mu[i] == pytest.approx(el[i], abs=1e-10)


def random_stages(rng, k, curvature):
    """Stages of a ``k``-step reduced problem: dynamics ``alpha, beta, gamma``
    and ``W_i = R_i'R_i`` plus ``curvature_i`` in ``W_uu``."""
    r = rng.uniform(-1.0, 1.0, (k, 3, 3))
    w = r.transpose(0, 2, 1) @ r
    w[:, 1, 1] += curvature
    dynamics = (rng.uniform(0.5, 1.5, k), rng.uniform(0.2, 1.0, k) * rng.choice([-1.0, 1.0], k),
                rng.uniform(-0.3, 0.3, k))
    entries = (w[:, 0, 0], w[:, 0, 1], w[:, 0, 2], w[:, 1, 1], w[:, 1, 2], w[:, 2, 2])
    return [col.tolist() for col in (*dynamics, *entries)]


def dense_reduced_hessian(stages):
    """The Hessian of ``sum 1/2 s_i' W_i s_i`` over the controls, built densely:
    ``e_{i+1} = alpha_i e_i + beta_i du_i + gamma_i dz`` from ``e_0 = 0`` and
    ``e_m = dz`` make ``s_i = (e_{i+1}, du_i, dz)`` linear in ``du``."""
    alpha, beta, gamma, wxx, wxu, wxz, wuu, wuz, wzz = map(np.asarray, stages)
    m = alpha.size
    e = np.zeros((m + 1, m + 1))  # e_i over (du, dz)
    for i in range(m):
        e[i + 1] = alpha[i] * e[i]
        e[i + 1, i] += beta[i]
        e[i + 1, m] += gamma[i]
    # e_m = dz fixes dz as a linear function of du
    to_full = np.vstack((np.eye(m), e[m, :m] / (1.0 - e[m, m])))
    hess = np.zeros((m + 1, m + 1))
    for i in range(m):
        s = np.zeros((3, m + 1))
        s[0], s[1, i], s[2, m] = e[i + 1], 1.0, 1.0
        w = np.array([[wxx[i], wxu[i], wxz[i]], [wxu[i], wuu[i], wuz[i]],
                      [wxz[i], wuz[i], wzz[i]]])
        hess += s.T @ w @ s
    return to_full.T @ hess @ to_full


class TestStructuredNewton:
    def test_newton_step_matches_central_differences(self):
        # the unshifted step of the control form g = u, mapped to the grid
        # values, is the Newton step of the objective over x[1:]
        f = tv.parse("sqrt(1 + v^2) + x*v*z + cos(x)*z + t*x^2 + (z - 1)^2*v^2")
        rng = np.random.default_rng(53)
        worst = 0.0
        for _ in range(10):
            p = tv.VariationalProblem(random_scale(rng), f, float(rng.uniform(-1, 1)))
            x = admissible_grid(rng, p)
            mu = p.scale.mu_values[:-1]
            cp = tv.ControlProblem.from_variational(p)
            h, stages = _Core(cp).derivatives(x.delta_values, x.values, x.values[-1])
            du, _, _ = _riccati_step(stages, (mu * h).tolist(), 0.0)
            grad, hess = objective_derivatives(p, x.values[1:])
            gap = np.max(np.abs(h - np.append(h[1:], 0.0) - grad))
            assert gap <= 1e-6 * max(1.0, np.max(np.abs(grad)))
            want = np.linalg.solve(hess, -grad)
            worst = max(worst, float(np.max(np.abs(np.cumsum(mu * du) - want))
                                     / max(1.0, np.max(np.abs(want)))))
        assert worst <= 1e-5

    @pytest.mark.parametrize("k", [1, 2, 7, 40])
    def test_elimination_matches_dense_solve(self, k):
        # half the draws have stages of negative curvature in u; the step is
        # computed either way, and called definite exactly when it is
        rng = np.random.default_rng(k)
        seen = set()
        for draw in range(20):
            low = 0.1 if draw % 2 else -1.5
            stages = random_stages(rng, k, rng.uniform(low, 0.5, k))
            r = rng.standard_normal(k)
            for tau in (0.0, 0.75):
                d, definite, cond = _riccati_step(stages, r.tolist(), tau)
                hess = dense_reduced_hessian(stages) + tau * np.eye(k)
                want = np.linalg.solve(hess, -r)
                assert np.max(np.abs(d - want)) <= 1e-10 * max(1.0, np.max(np.abs(want)))
                assert definite == (np.linalg.eigvalsh(hess)[0] > 0.0)
                assert 1.0 <= cond < math.inf
                seen.add(definite)
        assert seen == {True, False}

    def test_definite_with_a_negative_stage_pivot(self):
        # one stage, e_1 = du + 0*dz = dz: the pivot is W_uu = -1, yet the
        # reduced Hessian W_uu + 2 W_uz + W_zz = 1 is positive definite
        stages = [[1.0], [1.0], [0.0], [0.0], [0.0], [0.0], [-1.0], [0.0], [2.0]]
        d, definite, _ = _riccati_step(stages, [3.0], 0.0)
        assert definite
        assert d.tolist() == [-3.0]
        assert dense_reduced_hessian(stages).tolist() == [[1.0]]

    def test_elimination_stops_at_a_zero_pivot(self):
        # the last stage, eliminated first, has no curvature: its pivot is 0
        stages = random_stages(np.random.default_rng(7), 3, np.zeros(3))
        for col in stages[3:]:
            col[-1] = 0.0
        d, definite, cond = _riccati_step(stages, [1.0, 1.0, 1.0], 0.0)
        assert d is None and not definite and cond == math.inf

    def test_shift_gives_a_descent_direction_on_an_indefinite_hessian(self):
        rng = np.random.default_rng(61)
        for k in (1, 5, 30):
            stages = random_stages(rng, k, np.full(k, 0.2))
            stages[6][0] = -2.0 - sum(abs(v[0]) for v in stages[3:])
            hess = dense_reduced_hessian(stages)
            assert np.linalg.eigvalsh(hess)[0] < 0.0
            r = rng.standard_normal(k)
            d = _shifted_control_step(stages, r)
            assert float(r @ d) < 0.0
            # d solves a shifted system H + tau I with tau making it positive definite
            tau = float(np.median((-r - hess @ d) / d))
            assert np.allclose(hess @ d + tau * d, -r)
            assert np.min(np.linalg.eigvalsh(hess + tau * np.eye(k))) > 0.0

    @pytest.mark.parametrize("n", [180, 3200, 20000])
    def test_penalized_length_takes_few_newton_steps(self, n):
        # dense BFGS needed about n iterations (the Hessian's condition number
        # grows like n^2); Newton's count does not grow with n, and the
        # largest mesh would not fit an n x n matrix in memory
        sol = tv.solve_variational(minimal_length_problem(3.0, n))
        assert sol.converged
        assert sol.iterations <= 8
        assert abs(sol.slope - minimal_slope_root(3.0)) <= 1e-7

    @pytest.mark.parametrize("beta, n", [(1.0, 800), (2.0, 20000)])
    def test_long_running_sums_do_not_stall_the_line_search(self, beta, n):
        # the state is a running sum of n slopes; with plain summation its
        # rounding drift made the Armijo test refuse steps near the optimum
        # (10 steps at n = 800, no convergence at n = 20000)
        sol = tv.solve_variational(minimal_length_problem(beta, n))
        assert sol.converged
        assert sol.iterations <= 4

    def test_a_refused_trial_evaluates_no_partials(self, monkeypatch):
        # Armijo's test reads only the objective: the batch of partials runs
        # at the start and once per accepted step, never at a refused trial
        calls = {"value": 0, "derivatives": 0}
        for name in calls:
            def counted(self, *args, _raw=getattr(_Core, name), _name=name):
                calls[_name] += 1
                return _raw(self, *args)

            monkeypatch.setattr(_Core, name, counted)
        ts = tv.TimeScale.integer_range(0, 8)
        p = tv.VariationalProblem(ts, tv.parse("sqrt(1+v^2) + 2*(z-1)^2 + cos(x)"), 0.0)
        steps = []
        sol = tv.solve_variational(p, on_accept=lambda y, J: steps.append(J))
        assert sol.converged and len(steps) == sol.iterations
        assert calls["value"] > calls["derivatives"] == 1 + len(steps)

    def test_non_convex_integrand_converges(self):
        ts = tv.TimeScale.integer_range(0, 8)
        p = tv.VariationalProblem(ts, tv.parse("sqrt(1+v^2) + 2*(z-1)^2 + cos(x)"), 0.0)
        sol = tv.solve_variational(p)
        assert sol.converged
        assert sol.report.sup_norm <= 1e-8
        # a local minimizer: the Hessian there is positive definite
        _, hess = objective_derivatives(p, sol.x.values[1:])
        assert np.min(np.linalg.eigvalsh(hess)) > 0.1


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

    def test_zero_pivot_at_the_flat_start_is_a_singular_jacobian(self):
        # w = 1: the flat start x = 0 has an exactly zero Riccati pivot
        p = tv.VariationalProblem(tv.TimeScale.integer_range(0, 8),
                                  tv.parse("sqrt(1+v^2) + 2*(z-1)^2 + 1.0*cos(x)"), 0.0)
        with pytest.raises(tv.SingularJacobianError, match=r"cond ~ inf"):
            tv.solve_stationarity(p)

    @staticmethod
    def _outcome(solve, p, opts, x0=None):
        """Every output bit of a solve, or the type and text of its error."""
        try:
            s = solve(p, opts, x0)
        except (tv.TsvarError, ValueError, ZeroDivisionError, OverflowError) as exc:
            return type(exc), str(exc)
        return (s.x.values.tobytes(), float(s.objective_value).hex(), s.iterations,
                s.converged, s.message, s.verdict.status, s.verdict.reason)

    def test_shared_loop_matches_the_reference_loop(self):
        # the solver's former loop of its own, kept in helpers, over random
        # quadratics (from the flat start and from a random one), 61 rows of a
        # non-convex family and penalized length on long meshes
        rng = np.random.default_rng(61)
        cases = []
        for _ in range(15):
            p = random_quadratic_problem(rng, random_scale(rng, max_points=7))
            cases += [(p, tv.SolveOptions(), None), (p, TIGHT, admissible_grid(rng, p))]
        ts = tv.TimeScale.integer_range(0, 8)
        capped = tv.SolveOptions(max_iterations=15)  # two rows would run 210 and 500 steps
        for k in range(61):
            f = tv.parse(f"sqrt(1+v^2) + 2*(z-1)^2 + ({-3.0 + 0.1 * k!r})*cos(x)")
            cases.append((tv.VariationalProblem(ts, f, 0.0), capped, None))
        for n in (60, 180, 800):
            cases.append((minimal_length_problem(1.0, n), tv.SolveOptions(), None))
        kinds = set()
        for p, opts, x0 in cases:
            got = self._outcome(tv.solve_stationarity, p, opts, x0)
            assert got == self._outcome(reference_solve_stationarity, p, opts, x0)
            kinds.add(got[0] if len(got) == 2 else got[3])
        # converged, unconverged and raising rows were all compared
        assert kinds == {True, False, tv.SingularJacobianError}


class TestStepFloor:
    """Every Newton step is tried at full length (see the badly scaled oracle
    problems); the absolute step floor ends only the halvings, and
    ``iterations`` counts the steps taken."""

    @pytest.mark.parametrize("solve", [tv.solve_variational, tv.solve_stationarity])
    @pytest.mark.parametrize("n", [800, 3200, 20000])
    def test_penalized_length_rows_keep_their_steps(self, solve, n):
        sol = solve(minimal_length_problem(2.0, n))
        assert (sol.iterations, sol.converged) == (4, True)

    @pytest.mark.parametrize("w, trials", [
        (0.6, [1, 1, 1, 1, 7, 7, 7, 9, 8, 9, 10, 12]),
        (0.7, [1, 8, 3, 1, 1, 2, 3, 2, 6, 8, 10, 12]),
    ])
    def test_stalling_rows_keep_their_trial_points(self, monkeypatch, w, trials):
        # the sup-norm line test stalls on these rows (uncapped: 151 and 500
        # steps of some 40 halvings each); the trial points per step are pinned
        log = []
        value, newton_step = _Core.value, tv.solver._newton_step
        monkeypatch.setattr(_Core, "value", lambda self, u: log.append("v") or value(self, u))
        monkeypatch.setattr(tv.solver, "_newton_step",
                            lambda stages, r: log.append("s") or newton_step(stages, r))
        ts = tv.TimeScale.integer_range(0, 8)
        p = tv.VariationalProblem(ts, tv.parse(f"sqrt(1+v^2) + 2*(z-1)^2 + {w!r}*cos(x)"), 0.0)
        sol = tv.solve_stationarity(p, tv.SolveOptions(max_iterations=12))
        assert (sol.iterations, sol.converged) == (12, False)
        assert [len(run) for run in "".join(log).split("s")[1:]] == trials


class TestSolveControl:
    def test_integer_endpoint_penalty_exact(self):
        p = endpoint_penalty_control(tv.TimeScale.integer_range(0, 3))
        sol = tv.solve_control(p, TIGHT)
        expected = 5 / 16 * p.scale.points
        assert sol.converged
        assert np.max(np.abs(sol.x.values - expected)) <= 1e-12
        assert sol.objective_value == pytest.approx(0.3125, abs=1e-12)
        lam = sol.report.lam.values
        assert np.max(np.abs(lam[:-1] + 5 / 8)) <= 1e-12
        assert math.isnan(lam[-1]) and math.isnan(sol.u.values[-1])

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
        # quadratic z-dependence in g: the end-value consistency solve needs
        # secant steps beyond the first, which solves affine couplings only
        ts = tv.TimeScale.uniform(0, 1, 51)
        p = tv.ControlProblem(ts, tv.parse("u^2 + (z-2)^2"), tv.parse("u + z^2*t/4"), 1.0)
        sol = tv.solve_control(p, tv.SolveOptions(max_iterations=2000))
        assert sol.converged
        assert sol.report.sup_norm <= 1e-8
        assert not sol.verdict.sufficient  # nonlinear dynamics

    def test_implicit_step_with_large_graininess_converges(self):
        # mu * g_x = 2: no fixed-point iteration contracts, but the step is
        # exact, x_{i+1} = x_i / (1 - 2)
        ts = tv.TimeScale.integer_range(0, 3)
        p = tv.ControlProblem(ts, tv.parse("u^2"), tv.parse("u + 2*x"), 0.5)
        sol = tv.solve_control(p, tv.SolveOptions())
        assert sol.converged
        assert sol.report.sup_norm <= 1e-8
        assert list(sol.x.values) == [0.5, -0.5, 0.5, -0.5]

    def test_singular_implicit_step_raises(self):
        # mu * g_x = 1 on the integers: 1 - mu*g_x = 0, the step has no unique solution
        ts = tv.TimeScale.integer_range(0, 3)
        p = tv.ControlProblem(ts, tv.parse("u^2"), tv.parse("u + x"), 0.5)
        with pytest.raises(tv.SolveError, match=r"implicit state step .*at t = 0\.0"):
            tv.solve_control(p, tv.SolveOptions())

    def test_stiff_dynamics_converge(self):
        # mu * |g_x| = 2 on this sampling: no fixed-point iteration of the
        # state step contracts, at u = 0 or at any trial point
        ts = tv.TimeScale.uniform(0, 1, 11)
        p = tv.ControlProblem(ts, tv.parse("u^2 + 3*(z-1)^2"), tv.parse("u - 20*x"), 0.0)
        sol = tv.solve_control(p)
        assert sol.converged
        assert sol.report.sup_norm <= 1e-8

    def test_nonaffine_implicit_step_by_newton(self):
        # g_x = -2 - 3x^2 depends on x, so each step is a scalar Newton solve;
        # mu * |g_x| > 1 everywhere, where a fixed-point step cannot contract
        ts = tv.TimeScale.integer_range(0, 4)
        p = tv.ControlProblem(ts, tv.parse("u^2 + 4*(z-1)^2"), tv.parse("u - 2*x - x^3"), 0.0)
        sol = tv.solve_control(p)
        assert sol.converged
        assert sol.report.sup_norm <= 1e-8
        assert np.all(2.0 + 3.0 * sol.x.values[1:] ** 2 > 1.0)
        assert 0.5 < sol.x.values[-1] < 1.0

    def test_trial_point_divergence_shrinks_the_step(self):
        # the start (u = 0) is fine, but full BFGS steps reach states where
        # mu * g_x = 0.2 * x > 1 and the implicit step cannot contract
        ts = tv.TimeScale.integer_range(0, 5)
        p = tv.ControlProblem(ts, tv.parse("u^2 + 4*(z-1)^2"), tv.parse("u + 0.1*x^2"), 0.0)
        sol = tv.solve_control(p)
        assert sol.converged
        assert sol.report.sup_norm <= 1e-6
        assert 0.9 < sol.x.values[-1] < 1.0

    def test_report_is_hamiltonian_family(self):
        p = endpoint_penalty_control(tv.TimeScale.integer_range(0, 3))
        sol = tv.solve_control(p, TIGHT)
        assert sol.report.state_residuals is not None
        assert sol.report.costate_residuals is not None
        assert sol.report.stationarity_residuals is not None
        assert sol.report.el_residuals is None

    @pytest.mark.parametrize("g, exact", [("u - 0.5*x", True), ("u - 0.5*x + 0.2*z*t", False)])
    def test_objective_is_the_value_the_solve_minimized(self, monkeypatch, g, exact):
        # the solve reports the objective its last accepted iterate was valued
        # at, without a second valuation; without z in g that is every bit of
        # objective_control, with z the end value closes to 1e-12
        p = tv.ControlProblem(tv.TimeScale.q_grid(1.5, 0, 6, include_zero=True),
                              tv.parse("u^2 + x^2 + 3*(z - 1)^2"), tv.parse(g), 0.0)

        def second_valuation(*args):
            raise AssertionError("solve_control valued the objective again")

        # the solver module imports no objective function, so a second
        # valuation would have to go through tsvar.problem
        assert not hasattr(tv.solver, "objective_control")
        monkeypatch.setattr(tv.problem, "objective_control", second_valuation)
        sol = tv.solve_control(p)
        monkeypatch.undo()
        again = tv.objective_control(p, sol.x, sol.u)
        if exact:
            assert sol.objective_value == again
        else:
            assert sol.objective_value == pytest.approx(again, rel=1e-11)

    def test_iteration_cap_is_reported(self):
        # a cost that is not quadratic needs more than one Newton step
        ts = tv.TimeScale.uniform(0, 1, 41)
        p = tv.ControlProblem(ts, tv.parse("u^4 + (x-2)^2"), tv.parse("u + x/2"), 1.0)
        sol = tv.solve_control(p, tv.SolveOptions(max_iterations=1))
        assert not sol.converged
        assert sol.iterations == 1
        assert sol.message == "gradient tolerance not reached"

    def test_non_convex_cost_needs_the_shift(self):
        # at u = 0 every u^4 - 2u^2 term has curvature -4, so the unshifted
        # Newton step heads for a saddle; the shifted steps reach a minimizer
        ts = tv.TimeScale.uniform(0, 1, 21)
        p = tv.ControlProblem(ts, tv.parse("u^4 - 2*u^2 + (z-1)^2"), tv.parse("u"), 0.0)
        start = np.zeros(ts.n - 1)
        core = _Core(p)
        hu, stages = core.derivatives(start, *core.value(start)[1:])
        gradient = ts.mu_values[:-1] * hu
        _, definite, _ = _riccati_step(stages, gradient.tolist(), 0.0)
        assert not definite
        sol = tv.solve_control(p)
        assert sol.converged
        assert sol.report.sup_norm <= 1e-9
        assert np.all(12.0 * sol.u.values[:-1] ** 2 - 4.0 > 0.0)  # a local minimizer
        assert sol.objective_value < core.value(start)[0]


    @pytest.mark.parametrize("w", [0.1, 0.5, 0.9])
    def test_definite_step_with_negative_pivots_is_accepted(self, w):
        # at the minimizer the reduced Hessian is positive definite (central
        # differences give a smallest eigenvalue of 0.57/0.49/0.78), though a
        # stage pivot is negative; refusing the unshifted step there cost
        # linear convergence: 21/19/27 steps, not 5/7/8
        ts = tv.TimeScale.integer_range(0, 8)
        f = tv.parse(f"sqrt(1+v^2) + 2*(z-1)^2 + {w!r}*cos(x)")
        p = tv.ControlProblem.from_variational(tv.VariationalProblem(ts, f, 0.0))
        sol = tv.solve_control(p)
        assert sol.converged
        assert sol.iterations <= 8
        xv, u = sol.x.values, sol.u.values[:-1]
        hu, stages = _Core(p).derivatives(u, xv, float(xv[-1]))
        _, definite, _ = _riccati_step(stages, (ts.mu_values[:-1] * hu).tolist(), 0.0)
        assert definite

class TestControlInternals:
    def test_one_newton_step_reaches_the_oracle(self):
        # the reduced problem of a convex quadratic cost and affine dynamics is
        # a quadratic in the controls, so the exact Newton step from any start
        # lands on its minimizer
        rng = np.random.default_rng(23)
        for _ in range(20):
            p = random_quadratic_control(rng)
            ref = tv.brute_force_oracle(p)
            u0 = tv.GridFunction(p.scale, rng.uniform(-2.0, 2.0, size=p.scale.n))
            sol = tv.solve_control(p, tv.SolveOptions(max_iterations=1), u0=u0)
            assert sol.iterations == 1
            assert np.max(np.abs(sol.u.values[:-1] - ref.u.values[:-1])) <= 1e-10
            assert sol.converged

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

    def test_implicit_step_without_solution_raises(self):
        # x_1 = 1 + (1 + x_1^2) has no real solution
        ts = tv.TimeScale.integer_range(0, 2)
        p = tv.ControlProblem(ts, tv.parse("u^2"), tv.parse("u + x^2"), 1.0)
        with pytest.raises(tv.SolveError, match=r"implicit state step .*at t = 0\.0"):
            _Core(p).state(np.ones(2), 0.0)

    def test_kept_control_solution_is_lean(self):
        # a kept solution holds its grids x, u, lam and the scale's points
        # (4 arrays of 25.6 kB), not the residual arrays or the graininess
        f, g = tv.parse("u^2 + x^2 + 3*(z-1)^2"), tv.parse("u - 0.5*x")

        def solve():
            ts = tv.TimeScale.uniform(0, 1, 3200)
            return tv.solve_control(tv.ControlProblem(ts, f, g, 0.0))

        solve()  # fill the diff and compile caches
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sol = solve()
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert sol.converged
        assert retained < 150e3

    def test_kept_control_solution_holds_two_grids(self):
        # beyond the caller's problem, a kept solution holds x and u (2 arrays
        # of 25.6 kB); the multipliers are derived on read
        ts = tv.TimeScale.uniform(0, 1, 3200)
        p = tv.ControlProblem(ts, tv.parse("u^2 + x^2 + 3*(z-1)^2"), tv.parse("u - 0.5*x"), 0.0)
        tv.solve_control(p)  # fill the diff and compile caches
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sol = tv.solve_control(p)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert sol.converged
        assert retained < 60e3

    def test_lam_is_recovered_from_the_returned_grids(self):
        p = tv.ControlProblem(tv.TimeScale.uniform(0, 1, 51), tv.parse("u^2 + (z-2)^2"),
                              tv.parse("u + z^2*t/4"), 1.0)
        sol = tv.solve_control(p)
        xv = sol.x.values
        lam = sol.report.lam.values
        assert np.array_equal(lam[:-1], reference_costate(p, xv, sol.u.values[:-1], float(xv[-1])))
        assert math.isnan(lam[-1])

    @pytest.mark.parametrize("kind", ["variational", "control"])
    def test_report_is_computed_from_the_returned_grids(self, kind):
        if kind == "variational":
            p = minimal_length_problem(2.0, 40)
            sol = tv.solve_variational(p)
            fresh = tv.variational_residuals(p, sol.x)
        else:
            p = endpoint_tracking_control(41)
            sol = tv.solve_control(p)
            fresh = tv.hamiltonian_residuals(p, sol.x, sol.u, sol.report.lam)
        assert sol.problem is p
        report = sol.report
        for name in ("el_residuals", "state_residuals", "costate_residuals",
                     "stationarity_residuals"):
            a, b = getattr(report, name), getattr(fresh, name)
            assert (a is None and b is None) or np.array_equal(a, b)
        assert report.transversality == fresh.transversality
        assert report.sup_norm == fresh.sup_norm

    def test_state_of_g_equal_u_is_a_compensated_running_sum(self):
        # over 20000 equal steps the roundings of a plain running sum add up;
        # the compensated one stays within about one of the exactly rounded sums
        ts = tv.TimeScale.uniform(0.0, 1.0, 20001)
        p = tv.ControlProblem(ts, tv.parse("u^2"), tv.parse("u"), 0.3)
        u = np.full(ts.n - 1, 0.7)
        steps = ts.mu_values[:-1] * u
        total, exact = Fraction(0.3), [0.3]
        for step in steps.tolist():
            total += Fraction(step)
            exact.append(float(total))
        exact = np.array(exact)
        eps = np.finfo(float).eps
        assert np.max(np.abs(np.cumsum(np.append(0.3, steps)) - exact)) > 100 * eps
        assert np.max(np.abs(_Core(p).state(u, 0.0) - exact)) <= 2 * eps

    def test_state_without_end_value_is_propagated_once(self, monkeypatch):
        ts = tv.TimeScale.uniform(0, 1, 21)
        p = tv.ControlProblem(ts, tv.parse("u^2"), tv.parse("u - 0.5*x"), 1.0)
        original = _Core.state
        results = []

        def counted(*args, **kwargs):
            results.append(original(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(_Core, "state", counted)
        x, zeta = _Core(p).consistent(np.linspace(-1.0, 1.0, ts.n - 1))
        assert len(results) == 1
        assert x is results[0]
        assert zeta == x[-1]

    def test_set_up_calls_do_not_grow_with_the_iterations(self, monkeypatch):
        # every partial is looked up and every kernel built once per solve, so
        # a 2-step and a 4-step solve make the same diff and compile_fn calls
        ts = tv.TimeScale.uniform(0, 1, 40)
        p = tv.ControlProblem(ts, tv.parse("u^2 + x^2 + exp(u) + 3*(z-1)^2"),
                              tv.parse("u - 0.5*x + 0.2*z*t"), 0.0)
        assert tv.solve_control(p).iterations == 4  # and the caches are warm
        calls = {"diff": 0, "compile_fn": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(tv.expr, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(tv.expr, name, counted)
        seen = []
        for opts in (tv.SolveOptions(max_iterations=2), tv.SolveOptions()):
            calls.update(diff=0, compile_fn=0)
            sol = tv.solve_control(p, opts)
            seen.append((sol.iterations, dict(calls)))
        (short, short_calls), (full, full_calls) = seen
        assert (short, full) == (2, 4)
        assert short_calls == full_calls
        assert full_calls["compile_fn"] > 0

    @staticmethod
    def _report_lam(p, x, u, zeta):
        """The multipliers of the report at ``x`` with its ends set to
        ``alpha`` and ``zeta``, and the reference sweeps' at the same grid."""
        x[0], x[-1] = p.alpha, zeta
        report = tv.hamiltonian_residuals(p, tv.GridFunction(p.scale, x),
                                          tv.GridFunction(p.scale, np.append(u, np.nan)))
        assert math.isnan(report.lam.values[-1])
        return report.lam.values[:-1], reference_costate(p, x, u, zeta)

    def test_report_lam_matches_reference_sweeps(self):
        rng = np.random.default_rng(11)
        f = tv.parse("u^2 + x*z + sin(x)*z^2 + t*u")
        g = tv.parse("u + 0.2*x*z + z*t/4")
        for _ in range(20):
            ts = random_scale(rng, max_points=12, min_gap=0.2)
            p = tv.ControlProblem(ts, f, g, float(rng.uniform(-1, 1)))
            x = rng.uniform(-1.0, 1.0, ts.n)
            u = rng.uniform(-1.0, 1.0, ts.n - 1)
            zeta = float(rng.uniform(-1.0, 1.0))
            lam, ref = self._report_lam(p, x, u, zeta)
            assert np.array_equal(lam, ref)


    def test_one_batch_stages_match_the_hamiltonian_form(self):
        # the partials of f and g, combined with the multipliers afterwards,
        # give the bits of the partials of H = f + lam*g; every second partial
        # of f and g but g_uu and g_uz is non-zero here
        rng = np.random.default_rng(13)
        f = tv.parse("u^2 + x*z + sin(x)*z^2 + t*u + x^2*u^2/4 + u*z^2/3")
        g = tv.parse("u + 0.2*x*z + sin(x)*u/4 + z^2*t/8")
        for _ in range(20):
            ts = random_scale(rng, max_points=12, min_gap=0.2)
            p = tv.ControlProblem(ts, f, g, float(rng.uniform(-1, 1)))
            x = rng.uniform(-1.0, 1.0, ts.n)
            u = rng.uniform(-1.0, 1.0, ts.n - 1)
            zeta = float(rng.uniform(-1.0, 1.0))
            h, stages = _Core(p).derivatives(u, x, zeta)
            h_ref, ref = hamiltonian_stages(p, u, x, zeta)
            assert np.array_equal(h, h_ref)
            assert len(stages) == len(ref) == 9
            for col, col_ref in zip(stages, ref):
                assert col == col_ref.tolist()

    def test_report_lam_of_g_equal_u_matches_reference_sweeps(self):
        # every denominator is 1, so the sweeps are compensated running sums:
        # the same values as the reference loop up to its rounding drift
        rng = np.random.default_rng(11)
        f = tv.parse("u^2 + x*z + sin(x)*z^2 + t*u")
        eps = np.finfo(float).eps
        for _ in range(20):
            ts = random_scale(rng, max_points=12, min_gap=0.2)
            p = tv.ControlProblem(ts, f, tv.parse("u"), float(rng.uniform(-1, 1)))
            x = rng.uniform(-1.0, 1.0, ts.n)
            u = rng.uniform(-1.0, 1.0, ts.n - 1)
            zeta = float(rng.uniform(-1.0, 1.0))
            lam, ref = self._report_lam(p, x, u, zeta)
            assert np.max(np.abs(lam - ref)) <= 16 * ts.n * eps * max(1.0, np.max(np.abs(ref)))

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

    def test_rejects_an_unsupported_type_before_reading_its_scale(self):
        with pytest.raises(tv.OracleError, match="^unsupported problem type object$"):
            tv.brute_force_oracle(object())

    @pytest.mark.parametrize("form", ["variational", "control"])
    def test_refuses_a_saddle(self, form):
        # the cost is concave in the end value: the stationary point is a
        # saddle, and the solvers run off towards minus infinity
        ts = tv.TimeScale.integer_range(0, 5)
        p = tv.VariationalProblem(ts, tv.parse("(v-1)^2 - 5*(z-1)^2"), 0.0)
        if form == "control":
            p = tv.ControlProblem(ts, tv.parse("(u-1)^2 - 5*(z-1)^2"), tv.parse("u"), 0.0)
        with pytest.raises(tv.OracleError, match="not positive definite; no unique minimizer"):
            tv.brute_force_oracle(p)

    @pytest.mark.parametrize("form", ["control", "variational"])
    def test_refuses_a_cost_linear_in_the_control(self, form):
        # the cost is 2*x(T) + T*(z-1)^2: the end value is unique, but any
        # path to it is a minimizer, and the controls' curvature is rounding
        # noise that a scaling by 1/sqrt|A_ii| alone would blow up to O(1)
        ts = tv.TimeScale.from_points([0.0, 0.5, 1.2])
        p = tv.VariationalProblem(ts, tv.parse("2*v + (z-1)^2"), 0.0)
        if form == "control":
            p = tv.ControlProblem(ts, tv.parse("2*u + (z-1)^2"), tv.parse("u"), 0.0)
        with pytest.raises(tv.OracleError, match="not positive definite; no unique minimizer"):
            tv.brute_force_oracle(p)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("f, message", [
        # the sum of two finite values in the polarization overflows
        ("1e308*u^2 + (z-1)^2", "objective overflows: overflow encountered in scalar add"),
        # the sum of the terms of one value overflows
        ("u^2 + 1e308*(z-1)^2", "objective overflows: intermediate overflow in fsum"),
        # the coefficient is inf, and inf*0 is NaN at the origin
        ("1e308*10*u^2 + (z-1)^2", r"objective is nan at w = \[0.0, 0.0, 0.0, 0.0\]"),
    ])
    def test_an_objective_that_overflows_is_an_oracle_error(self, f, message):
        p = tv.ControlProblem(tv.TimeScale.integer_range(0, 3), tv.parse(f), tv.parse("u"), 0.0)
        with pytest.raises(tv.OracleError, match=f"^{message}$"):
            tv.brute_force_oracle(p)

    def test_variational_problems_match_the_grid_value_oracle(self):
        # the control form over (u, zeta) and the direct minimization over
        # x[1:] are one minimizer found two ways
        rng = np.random.default_rng(43)
        for _ in range(200):
            p = random_quadratic_problem(rng, random_scale(rng, max_points=8, min_gap=0.1))
            sol = tv.brute_force_oracle(p)
            x, J = reference_oracle_variational(p)
            assert sol.u is None
            assert np.max(np.abs(sol.x.values - x)) <= 1e-13
            assert abs(sol.objective_value - J) <= 1e-14 * max(1.0, abs(J))

    def test_rejects_a_nonquadratic_variational_cost(self):
        p = minimal_length_problem(1.0, 5)
        with pytest.raises(tv.OracleError,
                           match=r"^oracle needs a quadratic cost and affine dynamics$"):
            tv.brute_force_oracle(p)

    @pytest.mark.parametrize("points, beta", [
        ([0.0, 1.0, 2.0], 1.0),
        ([0.0, 0.3, 0.5, 1.2, 1.25], 2.5),
    ], ids=["integers", "mixed"])
    def test_penalized_length_is_the_straight_line(self, points, beta):
        # sqrt(1+v^2) is convex, so for a given end value equal slopes give
        # the least length (Jensen): the minimizer is x = s*(t - a), whose
        # slope s is the root of the derivative of (T-a)*(sqrt(1+s^2) +
        # beta*((T-a)*s - 1)^2), on any time scale
        ts = tv.TimeScale.from_points(points)
        p = tv.VariationalProblem(ts, tv.parse(f"sqrt(1+v^2) + ({beta:.17g})*(z-1)^2"), 0.0)
        span = points[-1] - points[0]
        s = bisect_root(lambda s: s / math.sqrt(1 + s * s) + 2 * beta * span * (span * s - 1),
                        0.0, 1.0 / span)
        sol = tv.solve_variational(p, TIGHT)
        assert sol.converged
        assert np.max(np.abs(sol.x.values - s * (ts.points - points[0]))) <= 1e-9
        if beta == 1.0:
            assert sol.x.values == pytest.approx([0.0, 0.448817, 0.897633], abs=1e-6)

    @pytest.mark.parametrize("f, g", [
        ("u^2 + x^2 + 3*(z - 1)^2", "u + x*u"),  # dynamics not affine
        ("u^2 + x^4", "u"),  # cost not quadratic
    ])
    def test_control_guards_reject_nonquadratic_input(self, f, g):
        p = tv.ControlProblem(tv.TimeScale.integer_range(0, 4), tv.parse(f), tv.parse(g), 0.5)
        with pytest.raises(tv.OracleError,
                           match=r"^oracle needs a quadratic cost and affine dynamics$"):
            tv.brute_force_oracle(p)

    @pytest.mark.parametrize("w", [1e9, 1e10, 1e12, 1e13, 1e14])
    def test_reads_the_inertia_of_a_badly_scaled_problem(self, w):
        # the KKT matrix's negative eigenvalue is about 1/w of its largest,
        # so its unscaled inertia reads a zero; the minimizer is exactly
        # x = s*t with s = 3/(w + 9).  From 1e13 on, the direct solve's one
        # full step is shorter than its line search's step floor of 1e-12
        ts = tv.TimeScale.integer_range(0, 3)
        p = tv.ControlProblem(ts, tv.parse(f"({w:.17g})*u^2 + (z-1)^2"), tv.parse("u"), 0.0)
        sol = tv.brute_force_oracle(p)
        want = 3.0 / (w + 9.0) * ts.points
        assert np.max(np.abs(sol.x.values - want)) <= 1e-12 * want[-1]
        direct = tv.solve_control(p, TIGHT)
        assert direct.converged and direct.iterations == 1
        assert np.max(np.abs(direct.x.values - sol.x.values)) <= 1e-12 * want[-1]

    def test_control_guards_accept_quadratic_cost_and_affine_dynamics(self):
        ts = tv.TimeScale.from_points([0.0, 0.5, 1.5, 2.0, 3.5])
        p = tv.ControlProblem(
            ts, tv.parse("u^2 + x^2 + 3*(z - 1)^2"), tv.parse("u - 0.5*x + 0.2*z"), 0.0
        )
        oracle = tv.brute_force_oracle(p)
        direct = tv.solve_control(p, TIGHT)
        assert direct.converged
        assert np.max(np.abs(direct.x.values - oracle.x.values)) <= 1e-9
        assert np.max(np.abs(direct.u.values[:-1] - oracle.u.values[:-1])) <= 1e-9

    def test_oracle_uses_no_kernel_no_core_and_no_solver_loop(self, monkeypatch):
        # the oracle checks the solvers and their compiled kernels, so it
        # values points by the interpreted walk and propagates its own state:
        # wrong kernels leave its solutions alone, and it never reaches the
        # solver's core, its Newton loop or the pointwise kernel
        rng = np.random.default_rng(41)
        problems = [random_quadratic_problem(rng), random_quadratic_control(rng),
                    random_quadratic_control(rng),
                    tv.ControlProblem(tv.TimeScale.integer_range(0, 3),
                                      tv.parse("1e12*u^2 + (z-1)^2"), tv.parse("u"), 0.0)]
        want = [tv.brute_force_oracle(p) for p in problems]
        compile_fn = tv.expr.compile_fn

        def wrong(e, array=False):
            fn = compile_fn(e, array)
            return lambda *args: 2.0 * fn(*args) + 1.0

        def forbidden(name):
            def call(*args, **kwargs):
                raise AssertionError(f"the oracle called the solver's {name}")
            return call

        monkeypatch.setattr(tv.expr, "compile_fn", wrong)
        for name in ("_Core", "_minimize", "pointwise"):
            monkeypatch.setattr(tv.solver, name, forbidden(name))
        for p, ref in zip(problems, want):
            sol = tv.brute_force_oracle(p)
            assert np.array_equal(sol.x.values, ref.x.values)
            assert sol.objective_value == ref.objective_value

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

    def test_back_to_back_solves_screen_once(self, monkeypatch):
        # every solver screens the problem object it was given, so solves of
        # one problem, with another start or other options too, share the one
        # verdict kept on it
        screened = []
        linearity = tv.conditions._linearity_check
        monkeypatch.setattr(tv.conditions, "_linearity_check",
                            lambda p: screened.append(p) or linearity(p))
        p = tv.VariationalProblem(tv.TimeScale.integer_range(0, 4),
                                  tv.parse("v^2 - 0.1*x^2 + (z - 1)^2"), 0.0)
        first = tv.solve_variational(p)
        sols = [first, tv.solve_stationarity(p), tv.brute_force_oracle(p),
                tv.solve_variational(p, TIGHT, x0=first.x)]
        assert len(screened) == 1
        assert first.verdict.status == "inconclusive"  # not the one shared `sufficient`
        assert all(sol.verdict is first.verdict for sol in sols)

    @pytest.mark.parametrize("kind", ["variational", "control"])
    def test_verdict_derives_from_the_problem(self, kind):
        # each solver's and the oracle's solution screens the problem it
        # holds; the constructor takes no verdict, and derives one too
        ts = tv.TimeScale.integer_range(0, 4)
        if kind == "variational":
            p = tv.VariationalProblem(ts, tv.parse("v^2 - 0.1*x^2 + (z - 1)^2"), 0.0)
            solves = [tv.solve_variational, tv.solve_stationarity, tv.brute_force_oracle]
        else:
            p = tv.ControlProblem(ts, tv.parse("u^2 - 0.1*x^2 + 3*(z - 1)^2"),
                                  tv.parse("u - 0.5*x + 1"), 0.0)
            solves = [tv.solve_control, tv.brute_force_oracle]
        for solve in solves:
            sol = solve(p)
            assert sol.problem is p
            assert sol.verdict is tv.sufficiency_check(sol.problem), solve.__name__
            assert sol.verdict.status == "inconclusive"  # not the one shared `sufficient`
        built = tv.Solution(p, sol.x, sol.u, sol.objective_value, True, 0)
        assert built.verdict is sol.verdict
        with pytest.raises(TypeError, match="verdict"):
            tv.Solution(p, sol.x, sol.u, sol.objective_value, True, 0, verdict=sol.verdict)

    def test_a_solve_and_its_screen_build_one_control_form(self, monkeypatch):
        # the screen of the user's problem finds the control form the solve
        # built, so a new problem, as each sweep row is, builds it once
        p = tv.VariationalProblem(tv.TimeScale.integer_range(0, 8),
                                  tv.parse("sqrt(1 + v^2) + 2*(z - 1)^2 + 0.1*cos(x)"), 0.0)
        roots = []
        substitute = tv.expr.substitute
        monkeypatch.setattr(tv.expr, "substitute",
                            lambda e, *args: roots.append(e is p.f) or substitute(e, *args))
        tv.solve_variational(p)
        assert sum(roots) == 1


class TestStartScale:
    # a start on another time scale is refused, whatever its length
    @pytest.mark.parametrize("n", [3, 5, 9])
    def test_solve_control(self, n):
        p = endpoint_penalty_control(tv.TimeScale.integer_range(0, 4))
        u0 = tv.GridFunction(tv.TimeScale.uniform(0.0, 2.0, n), np.ones(n))
        with pytest.raises(tv.ScaleMismatchError, match="u0"):
            tv.solve_control(p, u0=u0)

    @pytest.mark.parametrize("solve", [tv.solve_variational, tv.solve_stationarity])
    @pytest.mark.parametrize("n", [3, 5, 9])
    def test_variational_solvers(self, solve, n):
        p = tv.VariationalProblem(tv.TimeScale.integer_range(0, 4),
                                  tv.parse("v^2 + (z - 1)^2"), 0.0)
        x0 = tv.GridFunction(tv.TimeScale.uniform(0.0, 2.0, n), np.ones(n))
        with pytest.raises(tv.ScaleMismatchError, match="x0"):
            solve(p, x0=x0)


class TestOverflow:
    """A state or objective that overflows is the domain error, with no numpy
    warning: an error at the start, a refused trial in a line search."""

    QGRID = tv.TimeScale.q_grid(1.3, 0, 12, True)

    def test_a_state_that_overflows_raises_the_domain_error(self):
        core = _Core(tv.ControlProblem(self.QGRID, tv.parse("u^2"), tv.parse("u"), 0.0))
        with pytest.raises(ValueError, match=r"^state is not finite at t = 2\.197$"):
            core.state(np.full(self.QGRID.n - 1, 1e308), 0.0)
        with pytest.raises(ValueError, match=r"^state is not finite at t = "):
            core.value(np.full(self.QGRID.n - 1, 1e308))

    def test_a_state_that_overflows_at_the_start_is_no_solution(self):
        # g = 1e308 used to return converged after 0 iterations, state inf
        p = tv.ControlProblem(self.QGRID, tv.parse("u^2"), tv.parse("1e308"), 0.0)
        with pytest.raises(tv.SolveError, match=r"^objective undefined at the starting "
                                                r"point: state is not finite at t = 2\.197$"):
            tv.solve_control(p)

    @pytest.mark.parametrize("g", ["u", "0.5*x + u"])
    def test_a_trial_whose_objective_overflows_is_refused(self, g):
        # the minimum value of u^2 - 1e200*z is below -1e308: the full step's
        # objective overflows, and so does every halving of it
        p = tv.ControlProblem(self.QGRID, tv.parse("u^2 - 1e200*z"), tv.parse(g), 0.0)
        sol = tv.solve_control(p)
        assert not sol.converged and sol.iterations == 0
        assert np.isfinite(sol.x.values).all()

    def test_a_sum_that_overflows_raises_in_any_order(self):
        ts = tv.TimeScale.from_points([0.0, 1.0, 3.0, 4.0])  # mu = 1, 2, 1
        for values in ([1e308, 1e308, 0.0], [0.0, 1e308, 0.0], [1e308, 0.0, 1e308]):
            with pytest.raises(OverflowError, match="^intermediate overflow in fsum$"):
                tv.problem.integrate_terms(ts, np.array(values))
        assert tv.problem.integrate_terms(ts, np.array([np.inf, 1.0, 2.0])) == np.inf


class TestSweep:
    def test_a_row_after_an_unconverged_one_starts_cold(self):
        # the w = -0.3 row diverges (its cost is unbounded below); the w = 4
        # row must not start from it
        ts = tv.TimeScale.integer_range(0, 6)

        def factory(w):
            return tv.ControlProblem(ts, tv.parse(f"x^2 + {w!r}*(u - 1)^2"), tv.parse("u"), 0.0)

        rows = tv.sweep(factory, [0.5, 1.0, 2.0, -0.3, 4.0])
        assert not rows[3].converged and rows[3].message == "gradient tolerance not reached"
        cold = tv.solve_control(factory(4.0))
        assert rows[4].converged and cold.converged
        assert (rows[4].slope, rows[4].endpoint, rows[4].objective) == (
            cold.slope, float(cold.x.values[-1]), cold.objective_value)

    @pytest.mark.filterwarnings("error")
    def test_a_run_off_row_warns_nothing(self):
        # beta = -1 makes the length cost unbounded below: the solve runs off
        # until the predicted decrease overflows, which refuses the trial
        rows = tv.sweep(lambda b: minimal_length_problem(b, 10), [-1.0, 2.0])
        assert not rows[0].converged and rows[0].message == "gradient tolerance not reached"
        assert rows[0].objective < -1e300
        assert rows[1].converged

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
        # the rows share their shapes, so the compiled sources stay few
        shapes = tv.expr._compile_shape.cache_info()
        assert shapes.maxsize is not None and shapes.currsize <= shapes.maxsize
        assert shapes.misses < 300 / 10

    @pytest.mark.parametrize("case", ["variational", "control"])
    def test_one_solve_fits_in_a_quarter_of_the_expression_caches(self, case):
        # a solve and its report, from empty caches; measured: 96 diff, 10
        # compile_fn and 10 shape entries (variational), 59, 7 and 7 (control)
        tv.expr.diff.cache_clear()
        tv.expr.compile_fn.cache_clear()
        if case == "variational":
            scale = tv.TimeScale.integer_range(0, 8)
            f = tv.parse("sqrt(1 + v^2) + 2*(z - 1)^2 + 0.5*cos(x)")
            tv.solve_variational(tv.VariationalProblem(scale, f, 0.0)).report
        else:
            p = tv.ControlProblem(tv.TimeScale.uniform(0.0, 1.0, 200),
                                  tv.parse("u^2 + x^2 + 3*(z - 1)^2"), tv.parse("u - 0.5*x"), 0.0)
            tv.solve_control(p).report
        for cached in (tv.expr.diff, tv.expr.compile_fn, tv.expr._compile_shape):
            info = cached.cache_info()
            assert info.currsize <= info.maxsize / 4

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
        # a NaN tolerance would stop every solve after 0 iterations, unconverged
        with pytest.raises(ValueError, match="gradient_tolerance must be positive"):
            tv.SolveOptions(gradient_tolerance=math.nan)

    def test_settable_options(self):
        # the screen runs at sufficiency_check's own seed; no option sets it
        names = [f.name for f in fields(tv.SolveOptions)]
        assert names == ["max_iterations", "gradient_tolerance"]

    def test_converged_solutions_meet_residual_closure(self):
        # residuals are gradient coordinates divided by the graininess, so on
        # scales with gaps >= 0.1 the sup norm stays within 10x the tolerance
        rng = np.random.default_rng(41)
        for _ in range(10):
            p = random_quadratic_problem(rng, random_scale(rng, min_gap=0.1))
            sol = tv.solve_variational(p, tv.SolveOptions(gradient_tolerance=1e-10))
            if sol.converged:
                assert sol.report.sup_norm <= 10 * 1e-10 / 0.1
