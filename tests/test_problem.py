"""Objective functionals, admissibility enforcement, and the C1-style norm."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tsvar as tv
from tsvar.cli import _read_candidate
from tsvar.problem import pointwise, terms
from helpers import endpoint_penalty_control, minimal_length_problem, random_expr_and_env

VARS = ("t", "x", "v", "z", "u", "lam")


@pytest.fixture
def zgrid():
    return tv.TimeScale.integer_range(0, 3)


class TestObjective:
    def test_linear_candidate_on_length_functional(self):
        p = minimal_length_problem(1.0, 11)
        x = tv.GridFunction.from_callable(p.scale, lambda t: t)
        # slope one everywhere and the end penalty vanishes at z = 1
        assert tv.objective(p, x) == pytest.approx(math.sqrt(2.0), abs=1e-14)

    def test_constant_candidate_on_pure_slope_cost(self, zgrid):
        p = tv.VariationalProblem(zgrid, tv.parse("v^2"), alpha=0.7)
        x = tv.GridFunction(zgrid, np.full(4, 0.7))
        assert tv.objective(p, x) == 0.0

    def test_endpoint_penalty_value_on_integers(self, zgrid):
        p = tv.VariationalProblem(zgrid, tv.parse("v^2 + t^2*(z-1)^2"), 0.0)
        x = tv.GridFunction.from_callable(zgrid, lambda t: 5 / 16 * t)
        assert tv.objective(p, x) == pytest.approx(0.3125, abs=1e-15)

    def test_rejects_wrong_scale(self, zgrid):
        p = tv.VariationalProblem(zgrid, tv.parse("v^2"), 0.0)
        other = tv.TimeScale.integer_range(0, 4)
        with pytest.raises(tv.AdmissibilityError):
            tv.objective(p, tv.GridFunction(other, np.zeros(5)))

    def test_rejects_wrong_initial_value(self, zgrid):
        p = tv.VariationalProblem(zgrid, tv.parse("v^2"), 0.0)
        with pytest.raises(tv.AdmissibilityError, match="initial"):
            tv.objective(p, tv.GridFunction(zgrid, np.array([0.5, 0, 0, 0])))

    def test_mesh_refinement_changes_value_first_order(self):
        # curved candidate on a dense sampling: value drifts O(1/N)
        vals = {}
        for n in (50, 100, 200, 400):
            p = minimal_length_problem(1.0, n)
            x = tv.GridFunction.from_callable(p.scale, lambda t: t * t)
            vals[n] = tv.objective(p, x)
        errors = [abs(vals[n] - vals[400]) for n in (50, 100, 200)]
        assert errors[0] > errors[1] > errors[2]
        # at least first order: doubling the point count at least halves
        # the drift (up to the finite reference at n = 400)
        assert errors[1] <= 0.6 * errors[0]
        assert errors[2] <= 0.6 * errors[1]

    def test_discrete_scale_value_is_mesh_free(self, zgrid):
        p = tv.VariationalProblem(zgrid, tv.parse("v^2 + x"), 0.0)
        x = tv.GridFunction.from_callable(zgrid, lambda t: 0.25 * t)
        direct = sum(
            0.25**2 + 0.25 * (t + 1) for t in range(3)
        )
        assert tv.objective(p, x) == pytest.approx(direct, rel=1e-15)


class TestObjectiveControl:
    def test_sampled_parabola_with_zero_control(self):
        p = tv.ControlProblem(
            tv.TimeScale.uniform(-1, 1, 101), tv.parse("u^2"), tv.parse("u + z*t"), 1.0
        )
        x = tv.GridFunction.from_callable(p.scale, lambda t: (t * t + 1) / 2)
        u = tv.GridFunction(p.scale, np.zeros(101))
        assert tv.objective_control(p, x, u) == 0.0

    def test_zero_control_zero_cost_any_scale(self):
        ts = tv.TimeScale.from_points([0, 0.5, 2, 3.5])
        p = tv.ControlProblem(ts, tv.parse("u^2"), tv.parse("u"), 1.0)
        x = tv.GridFunction(ts, np.ones(4))
        u = tv.GridFunction(ts, np.zeros(4))
        assert tv.objective_control(p, x, u) == 0.0

    def test_endpoint_penalty_on_integers(self):
        p = endpoint_penalty_control(tv.TimeScale.integer_range(0, 3))
        x = tv.GridFunction.from_callable(p.scale, lambda t: 5 / 16 * t)
        u = tv.GridFunction(p.scale, np.full(4, 5 / 16))
        assert tv.objective_control(p, x, u) == pytest.approx(0.3125, abs=1e-15)

    def test_exact_state_of_any_size_meets_the_dynamics(self):
        # a diverged warm-started solve: its state, propagated exactly, reaches
        # 1.6e16, where difference quotients round by about 2
        ts = tv.TimeScale.integer_range(0, 6)
        sol = None
        for w in (0.5, 1.0, 2.0, -0.3):
            p = tv.ControlProblem(ts, tv.parse(f"x^2 + {w!r}*(u - 1)^2"), tv.parse("u"), 0.0)
            sol = tv.solve_control(p, u0=sol.u if sol else None)
        assert not sol.converged and np.max(np.abs(sol.x.values)) > 1e16
        assert tv.objective_control(p, sol.x, sol.u) == sol.objective_value

    def test_dynamics_violation_reports_worst_point(self):
        p = endpoint_penalty_control(tv.TimeScale.integer_range(0, 3))
        x = tv.GridFunction.from_callable(p.scale, lambda t: t)
        u = tv.GridFunction(p.scale, np.zeros(4))
        with pytest.raises(tv.DynamicsViolationError, match="worst residual"):
            tv.objective_control(p, x, u)

    def test_matches_variational_objective_under_reduction(self):
        rng = np.random.default_rng(4)
        zgrid = tv.TimeScale.from_points([0, 1, 2.5, 3, 4.5])
        p = tv.VariationalProblem(zgrid, tv.parse("v^2 + x*z + sin(t)"), 0.25)
        pc = tv.ControlProblem.from_variational(p)
        xv = np.concatenate(([0.25], rng.uniform(-1, 1, size=4)))
        x = tv.GridFunction(zgrid, xv)
        u = tv.GridFunction(zgrid, np.append(x.delta_values, 0.0))
        assert tv.objective_control(pc, x, u) == pytest.approx(
            tv.objective(p, x), rel=1e-15
        )


class TestNorm1:
    def test_zero_at_equality(self, zgrid):
        x = tv.GridFunction.from_callable(zgrid, lambda t: t * t)
        assert tv.norm1(x, x) == 0.0

    def test_identity_difference_on_integers(self, zgrid):
        x = tv.GridFunction.from_callable(zgrid, lambda t: t)
        ref = tv.GridFunction(zgrid, np.zeros(4))
        assert tv.norm1(x, ref) == 4.0  # sup shifted values 3 plus sup slope 1

    def test_homogeneity(self, zgrid):
        rng = np.random.default_rng(2)
        ref = tv.GridFunction(zgrid, rng.normal(size=4))
        h = rng.normal(size=4)
        one = tv.norm1(tv.GridFunction(zgrid, ref.values + h), ref)
        two = tv.norm1(tv.GridFunction(zgrid, ref.values + 2 * h), ref)
        assert two == pytest.approx(2 * one, rel=1e-12)

    def test_scale_mismatch(self, zgrid):
        x = tv.GridFunction(zgrid, np.zeros(4))
        ref = tv.GridFunction(tv.TimeScale.integer_range(0, 4), np.zeros(5))
        with pytest.raises(tv.ScaleMismatchError):
            tv.norm1(x, ref)

    @settings(max_examples=80, deadline=None)
    @given(
        vals=st.lists(
            st.floats(-5, 5, allow_nan=False), min_size=12, max_size=12
        )
    )
    def test_triangle_inequality(self, vals):
        ts = tv.TimeScale.integer_range(0, 3)
        a = tv.GridFunction(ts, np.asarray(vals[0:4]))
        b = tv.GridFunction(ts, np.asarray(vals[4:8]))
        c = tv.GridFunction(ts, np.asarray(vals[8:12]))
        assert tv.norm1(a, c) <= tv.norm1(a, b) + tv.norm1(b, c) + 1e-12

    def test_positive_unless_equal(self, zgrid):
        x = tv.GridFunction(zgrid, np.zeros(4))
        y = tv.GridFunction(zgrid, np.array([0.0, 0.0, 1e-9, 0.0]))
        assert tv.norm1(x, y) > 0.0


class TestProblemValidation:
    def test_variational_needs_three_points(self):
        ts = tv.TimeScale.integer_range(0, 1)
        with pytest.raises(ValueError, match="three"):
            tv.VariationalProblem(ts, tv.parse("v^2"), 0.0)

    def test_variational_rejects_control_variables(self, zgrid):
        with pytest.raises(ValueError, match="u"):
            tv.VariationalProblem(zgrid, tv.parse("u^2"), 0.0)

    def test_control_rejects_slope_variable(self, zgrid):
        with pytest.raises(ValueError, match="v"):
            tv.ControlProblem(zgrid, tv.parse("v^2"), tv.parse("u"), 0.0)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_alpha_must_be_finite(self, zgrid, alpha):
        # a non-finite start used to fail only in the solve, "objective
        # undefined at the starting point"
        with pytest.raises(ValueError, match="alpha must be finite"):
            tv.VariationalProblem(zgrid, tv.parse("v^2"), alpha)
        with pytest.raises(ValueError, match="alpha must be finite"):
            tv.ControlProblem(zgrid, tv.parse("u^2"), tv.parse("u"), alpha)

    def test_reduction_renames_slope(self, zgrid):
        p = tv.VariationalProblem(zgrid, tv.parse("v^2 + z"), 0.0)
        pc = tv.ControlProblem.from_variational(p)
        assert tv.variables(pc.f) == {"u", "z"}
        assert pc.g == tv.expr.Var("u")


class TestPointwiseKernel:
    """``terms`` and ``pointwise``: every integrand term in one evaluation."""

    def test_matches_interpreter_on_array_columns(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 60:
            e, env = random_expr_and_env(rng)
            points = [{name: val * (1.0 + d) for name, val in env.items()}
                      for d in (0.0, 1e-3, -2e-3, 5e-3)]
            try:
                want = [tv.evaluate(e, point) for point in points]
            except tv.EvalError:
                continue
            cols = tuple(np.array([point[name] for point in points]) for name in VARS)
            assert pointwise(e)(cols)[0] == pytest.approx(want, rel=1e-13, abs=1e-13)
            checked += 1

    @pytest.mark.parametrize("src, want", [
        ("2.5", [2.5] * 3),
        ("t^2", [0.0, 1.0, 4.0]),
        ("3*z", [1.5] * 3),
    ])
    def test_constant_and_single_column_results_broadcast(self, zgrid, src, want):
        x = tv.GridFunction(zgrid, np.array([0.0, 1.0, -1.0, 0.5]))
        cols = terms(zgrid, x.values, u=x.delta_values)
        out = pointwise(tv.parse(src), tv.parse("u"))(cols)
        assert out.shape == (2, zgrid.n - 1)
        assert out[0].tolist() == want
        assert out[1].tolist() == [1.0, -2.0, 1.5]

    def test_control_columns_carry_state_end_value_and_controls(self, zgrid):
        cols = terms(zgrid, [0.0, 1.0, 2.0, 3.0], u=[4.0, 5.0, 6.0, np.nan], z=-1.0)
        out = pointwise(*(tv.parse(name) for name in ("x", "z", "u")))(cols)
        assert out.tolist() == [[1.0, 2.0, 3.0], [-1.0] * 3, [4.0, 5.0, 6.0]]

    @pytest.mark.parametrize("src", ["log(t)", "sqrt(x-2)", "1/x"])
    def test_domain_errors_raise_value_error(self, zgrid, src):
        x = tv.GridFunction(zgrid, np.array([0.0, 0.0, 1.0, 2.0]))
        cols = terms(zgrid, x.values, u=x.delta_values)
        with pytest.raises(ValueError, match=r"at t = 0\.0"):
            pointwise(tv.parse("x"), tv.parse(src))(cols)

    def test_objective_makes_one_compiled_call(self, monkeypatch):
        calls = []
        compile_fn = tv.expr.compile_fn

        def counted(e, *args, **kwargs):
            fn = compile_fn(e, *args, **kwargs)

            def call(*a):
                calls.append(len(a))
                return fn(*a)
            return call

        monkeypatch.setattr(tv.expr, "compile_fn", counted)
        p = minimal_length_problem(2.0, 2001)
        x = tv.GridFunction.from_callable(p.scale, lambda t: 0.8 * t)
        value = tv.objective(p, x)
        assert len(calls) == 1
        assert value == pytest.approx(math.sqrt(1.64) + 2.0 * 0.04, rel=1e-12)


def _raised(fn, *args) -> str:
    with pytest.raises(tv.TsvarError) as err:
        fn(*args)
    return str(err.value)


def _candidate_mismatch(tmp_path):
    path = tmp_path / "candidate.csv"
    path.write_text("t,x\n0,0\n1,0\n2.5,0\n3,0\n")
    return _raised(_read_candidate, path, tv.TimeScale.integer_range(0, 3))


def _initial_value(tmp_path):
    p = tv.VariationalProblem(tv.TimeScale.integer_range(0, 3), tv.parse("v^2"), 0.0)
    return _raised(tv.objective, p, tv.GridFunction(p.scale, np.ones(4)))


def _dynamics(tmp_path):
    p = tv.ControlProblem(tv.TimeScale.integer_range(0, 3), tv.parse("u^2"), tv.parse("u"), 0.0)
    x = tv.GridFunction(p.scale, np.array([0.0, 1.0, 2.0, 5.0]))
    return _raised(tv.objective_control, p, x, tv.GridFunction(p.scale, np.ones(4)))


def _undefined_dynamics(tmp_path):
    ts = tv.TimeScale.integer_range(0, 3)
    g = tv.parse("u + sqrt(1 - t)")
    return tv.sufficiency_check(tv.ControlProblem(ts, tv.parse("u^2"), g, 0.0)).reason


@pytest.mark.parametrize("message, text", [
    (_candidate_mismatch, "at row 2: 2.5 vs 2.0"),
    (_initial_value, "x(a) = 1.0, expected 0.0"),
    (_dynamics, "at t = 2.0"),
    (_undefined_dynamics, "= nan at t = 2.0"),
])
def test_messages_print_plain_floats(tmp_path, message, text):
    assert text in message(tmp_path)
