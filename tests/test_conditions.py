"""Residual evaluators for the necessary conditions and the sufficiency screen."""

import numpy as np
import pytest

import tsvar as tv
from helpers import (
    admissible_grid,
    endpoint_penalty_control,
    endpoint_tracking_control,
    minimal_length_problem,
    minimal_slope_root,
    random_quadratic_problem,
    random_scale,
    reference_hamiltonian_residuals,
    reference_sufficiency_check,
    reference_transversality_control_classical,
)


@pytest.fixture
def zgrid():
    return tv.TimeScale.integer_range(0, 3)


class TestEulerLagrange:
    def test_linear_candidate_on_length_functional(self):
        for beta in (1.0, 4.0):
            p = minimal_length_problem(beta, 40)
            x = tv.GridFunction.from_callable(p.scale, lambda t: 0.3 * t)
            assert np.max(np.abs(tv.euler_lagrange_residual(p, x))) <= 1e-12

    def test_square_candidate_flags_nonextremal(self, zgrid):
        p = tv.VariationalProblem(zgrid, tv.parse("v^2/2"), 0.0)
        x = tv.GridFunction.from_callable(zgrid, lambda t: t * t)
        assert tv.euler_lagrange_residual(p, x) == pytest.approx([2.0, 2.0])

    def test_linear_candidate_zero_on_any_scale(self):
        ts = tv.TimeScale.from_points([0, 0.5, 1.7, 2.0, 4.1])
        p = tv.VariationalProblem(ts, tv.parse("v^2/2"), 0.0)
        x = tv.GridFunction.from_callable(ts, lambda t: 1.3 * t)
        assert np.max(np.abs(tv.euler_lagrange_residual(p, x))) <= 1e-14

    def test_reported_on_interior_kappa_points(self, zgrid):
        p = tv.VariationalProblem(zgrid, tv.parse("v^2"), 0.0)
        x = tv.GridFunction(zgrid, np.zeros(4))
        assert len(tv.euler_lagrange_residual(p, x)) == zgrid.n - 2


class TestTransversality:
    def test_penalized_length_extremal(self):
        beta = 1.0
        p = minimal_length_problem(beta, 200)
        alpha = minimal_slope_root(beta)
        x = tv.GridFunction.from_callable(p.scale, lambda t: alpha * t)
        # slope constant and the z-partial t-free: the grid sums are exact,
        # so the residual is the scalar boundary equation itself
        assert abs(tv.transversality_residual(p, x)) <= 1e-10

    def test_z_free_problem_reduces_to_natural_boundary(self):
        ts = tv.TimeScale.uniform(0, 1, 30)
        p = tv.VariationalProblem(ts, tv.parse("v^2/2"), 0.0)
        x = tv.GridFunction.from_callable(ts, lambda t: 0.4 * t)
        fv = 0.4  # f_v at the last differentiation point; f_x = f_z = 0
        assert tv.transversality_residual(p, x) == pytest.approx(fv, rel=1e-12)

    def test_z_free_keeps_graininess_correction(self):
        # without a z term only f_v plus the mu-weighted f_x survive
        ts = tv.TimeScale.integer_range(0, 3)
        p = tv.VariationalProblem(ts, tv.parse("v^2/2 + x^2"), 0.0)
        x = tv.GridFunction.from_callable(ts, lambda t: 0.5 * t)
        k = ts.n - 2
        expected = 0.5 + ts.mu(k) * 2 * x.values[k + 1]
        assert tv.transversality_residual(p, x) == pytest.approx(expected, abs=1e-14)

    def test_endpoint_penalty_extremal_is_exact(self, zgrid):
        p = tv.VariationalProblem(zgrid, tv.parse("v^2 + t^2*(z-1)^2"), 0.0)
        x = tv.GridFunction.from_callable(zgrid, lambda t: 5 / 16 * t)
        assert tv.transversality_residual(p, x) == 0.0

    def test_general_and_regular_forms_agree(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            p = random_quadratic_problem(rng)
            x = admissible_grid(rng, p)
            general = tv.transversality_residual(p, x, form="general")
            regular = tv.transversality_residual(p, x, form="regular")
            assert abs(general - regular) <= 1e-12 * max(1.0, abs(general))


class TestTransversalityClassical:
    def test_penalized_length_at_fine_mesh(self):
        p = minimal_length_problem(1.0, 10**4)
        x = tv.GridFunction.from_callable(p.scale, lambda t: 0.7104241 * t)
        assert abs(tv.transversality_residual_classical(p, x)) <= 1e-6

    def test_constant_candidate_z_free(self):
        ts = tv.TimeScale.uniform(0, 1, 20)
        p = tv.VariationalProblem(ts, tv.parse("v^2/2"), 0.3)
        x = tv.GridFunction(ts, np.full(20, 0.3))
        assert tv.transversality_residual_classical(p, x) == 0.0

    def test_linear_family_closed_form(self):
        # f = v^2/2 + (z-1)^2 with x = c t: residual is 3c - 2
        ts = tv.TimeScale.uniform(0, 1, 400)
        p = tv.VariationalProblem(ts, tv.parse("v^2/2 + (z-1)^2"), 0.0)
        for c in (0.0, 0.5, 2.0 / 3.0, 1.0):
            x = tv.GridFunction.from_callable(ts, lambda t, c=c: c * t)
            assert tv.transversality_residual_classical(p, x) == pytest.approx(
                3 * c - 2, abs=1e-12
            )

    def test_rejected_off_dense_samplings(self, zgrid):
        p = tv.VariationalProblem(zgrid, tv.parse("v^2"), 0.0)
        x = tv.GridFunction(zgrid, np.zeros(4))
        with pytest.raises(tv.ScaleMismatchError):
            tv.transversality_residual_classical(p, x)

    def test_differs_from_general_form_by_weighted_x_partial(self):
        # the omitted correction is exactly mu(rho(T)) * f_x there, which is
        # what vanishes under mesh refinement
        rng = np.random.default_rng(14)
        ts = tv.TimeScale.uniform(0, 2, 25)
        p = tv.VariationalProblem(ts, tv.parse("v^2 + x^2*z + cos(t)*x"), 0.3)
        fx = tv.compile_fn(tv.diff(p.f, "x"))
        for _ in range(10):
            vals = rng.uniform(-1, 1, size=25)
            vals[0] = 0.3
            x = tv.GridFunction(ts, vals)
            k = ts.n - 2
            vk = (vals[k + 1] - vals[k]) / ts.mu(k)
            correction = ts.mu(k) * fx(ts.points[k], vals[k + 1], vk, vals[-1])
            gap = tv.transversality_residual(p, x) - tv.transversality_residual_classical(p, x)
            assert gap == pytest.approx(correction, abs=1e-13)


class TestTransversalityDiscrete:
    def test_endpoint_penalty_extremal(self, zgrid):
        p = tv.VariationalProblem(zgrid, tv.parse("v^2 + t^2*(z-1)^2"), 0.0)
        x = tv.GridFunction.from_callable(zgrid, lambda t: 5 / 16 * t)
        assert abs(tv.transversality_residual_discrete(p, x)) <= 1e-14

    def test_equals_general_form_on_integer_grids(self, zgrid):
        rng = np.random.default_rng(21)
        p = tv.VariationalProblem(zgrid, tv.parse("v^2 + x*z + cos(t)*v"), 0.1)
        for _ in range(10):
            x = admissible_grid(rng, p)
            assert tv.transversality_residual_discrete(p, x) == pytest.approx(
                tv.transversality_residual(p, x), abs=1e-13
            )

    def test_natural_boundary_when_z_free(self, zgrid):
        p = tv.VariationalProblem(zgrid, tv.parse("v^2/2"), 0.0)
        x = tv.GridFunction(zgrid, np.array([0.0, 0.25, 0.5, 0.75]))
        # f_z = 0 leaves f_x + f_v at the last differentiation point
        assert tv.transversality_residual_discrete(p, x) == pytest.approx(0.25)

    def test_linear_end_cost_slope_condition(self):
        # f = v^2/2 + z on {0,1,2}: the condition reads (last slope) + 2 = 0
        ts = tv.TimeScale.integer_range(0, 2)
        p = tv.VariationalProblem(ts, tv.parse("v^2/2 + z"), 0.0)
        for s in (-2.0, 0.0, 1.0):
            x = tv.GridFunction(ts, np.array([0.0, 0.0, s]))
            assert tv.transversality_residual_discrete(p, x) == pytest.approx(s + 2)

    def test_rejected_off_integer_grids(self):
        ts = tv.TimeScale.uniform(0, 1, 5)
        p = tv.VariationalProblem(ts, tv.parse("v^2"), 0.0)
        with pytest.raises(tv.ScaleMismatchError):
            tv.transversality_residual_discrete(p, tv.GridFunction(ts, np.zeros(5)))


class TestHamiltonianResiduals:
    def test_sampled_parabola_candidate(self):
        p = endpoint_tracking_control(101)
        x = tv.GridFunction.from_callable(p.scale, lambda t: (t * t + 1) / 2)
        u = tv.GridFunction(p.scale, np.zeros(101))
        lam = tv.GridFunction(p.scale, np.zeros(101))
        rep = tv.hamiltonian_residuals(p, x, u, lam)
        assert np.max(np.abs(rep.costate_residuals)) <= 1e-10
        assert np.max(np.abs(rep.stationarity_residuals)) <= 1e-10
        assert abs(rep.transversality) <= 1e-10
        # state equation keeps the first-order sampling residual
        assert np.max(np.abs(rep.state_residuals)) <= 2.0 / 101

    def test_integer_extremal_is_exact(self):
        p = endpoint_penalty_control(tv.TimeScale.integer_range(0, 3))
        x = tv.GridFunction.from_callable(p.scale, lambda t: 5 / 16 * t)
        u = tv.GridFunction(p.scale, np.full(4, 5 / 16))
        lam = tv.GridFunction(p.scale, np.full(4, -5 / 8))
        rep = tv.hamiltonian_residuals(p, x, u, lam)
        assert rep.sup_norm == 0.0

    def test_all_zero_candidate(self, zgrid):
        p = tv.ControlProblem(zgrid, tv.parse("u^2"), tv.parse("u"), 0.0)
        zero = tv.GridFunction(zgrid, np.zeros(4))
        rep = tv.hamiltonian_residuals(p, zero, zero, zero)
        assert rep.sup_norm == 0.0

    def test_reduction_reproduces_variational_residuals(self):
        # with g = u, multipliers -f_u along the trajectory turn the costate
        # and transversality families into the negated variational residuals
        rng = np.random.default_rng(31)
        for _ in range(10):
            p = random_quadratic_problem(rng)
            pc = tv.ControlProblem.from_variational(p)
            x = admissible_grid(rng, p)
            n = p.scale.n
            slopes = x.delta_values
            u = tv.GridFunction(p.scale, np.append(slopes, np.nan))
            fu = tv.compile_fn(tv.diff(pc.f, "u"))
            z = float(x.values[-1])
            lam_vals = [
                -fu(p.scale.points[i], x.values[i + 1], 0.0, z, slopes[i])
                for i in range(n - 1)
            ]
            lam = tv.GridFunction(p.scale, np.append(lam_vals, np.nan))
            rep = tv.hamiltonian_residuals(pc, x, u, lam)
            el = tv.euler_lagrange_residual(p, x)
            tc = tv.transversality_residual(p, x)
            assert np.max(np.abs(rep.state_residuals)) <= 1e-12
            assert np.max(np.abs(rep.stationarity_residuals)) <= 1e-12
            assert rep.costate_residuals == pytest.approx(-el, abs=1e-10)
            assert rep.transversality == pytest.approx(-tc, abs=1e-10)

    def test_oracle_minimizers_have_tiny_residuals(self):
        rng = np.random.default_rng(41)
        for _ in range(12):
            p = random_quadratic_problem(rng, random_scale(rng, max_points=6))
            sol = tv.brute_force_oracle(p)
            assert sol.report.sup_norm <= 1e-9


def same_bits(a, b) -> bool:
    """Equal values with equal sign bits, so ``-0.0`` differs from ``0.0``."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


# f and g pairs for the bit-for-bit checks: g with z, x*z and sin(x)*u terms,
# and partials that fold to the constant 0 or 1 (f without u, g = u, g without z)
HAMILTONIAN_FORMS = [
    ("u^2 + x^2 + 3*(z - 1)^2", "u - 0.5*x"),
    ("u^2 + x^2 + 3*(z - 1)^2", "u - 0.5*x + 0.2*z"),
    ("(u - x)^2 + exp(0.3*x) + t*(z - 1)^2", "u + 0.3*x*z - 0.1*t"),
    ("u^2 + cos(x) + z*u", "sin(x)*u + 0.5*u - 0.2*x"),
    ("x^2 + t*x*z", "u"),
    ("u^4/4 + x*u", "u*z + sin(x)*u"),
]


class TestHamiltonianBits:
    """The report forms the partials of H = f + lam*g from those of f and g;
    it must keep every bit of the symbolic ``diff(H, a)`` form."""

    @pytest.mark.parametrize("kind", ["uniform", "integers", "qgrid"])
    def test_report_matches_the_symbolic_form(self, kind):
        scale = {
            "uniform": tv.TimeScale.uniform(0.0, 1.0, 9),
            "integers": tv.TimeScale.integer_range(0, 7),
            "qgrid": tv.TimeScale.q_grid(1.5, 0, 6, include_zero=True),
        }[kind]
        rng = np.random.default_rng(53)
        n = scale.n
        for f, g in HAMILTONIAN_FORMS:
            p = tv.ControlProblem(scale, tv.parse(f), tv.parse(g), 0.25)
            for _ in range(5):
                xv = np.append(p.alpha, rng.uniform(-1.5, 1.5, n - 1))
                uv, lv = rng.uniform(-2.0, 2.0, (2, n))
                # signed zeros, where a folded term would otherwise show
                uv[1], lv[2], lv[3] = -0.0, -0.0, 0.0
                x, u, lam = (tv.GridFunction(scale, v) for v in (xv, uv, lv))
                got = tv.hamiltonian_residuals(p, x, u, lam)
                ref = reference_hamiltonian_residuals(p, x, u, lam)
                for name in ("state_residuals", "costate_residuals", "stationarity_residuals",
                             "transversality", "sup_norm"):
                    assert same_bits(getattr(got, name), getattr(ref, name)), (f, g, name)

    def test_classical_transversality_matches_the_symbolic_form(self):
        scale = tv.TimeScale.uniform(-1.0, 1.0, 11)
        rng = np.random.default_rng(59)
        for f, g in HAMILTONIAN_FORMS:
            p = tv.ControlProblem(scale, tv.parse(f), tv.parse(g), 0.0)
            for _ in range(5):
                xv = np.append(0.0, rng.uniform(-1.5, 1.5, scale.n - 1))
                uv, lv = rng.uniform(-2.0, 2.0, (2, scale.n))
                lv[4] = -0.0
                x, u, lam = (tv.GridFunction(scale, v) for v in (xv, uv, lv))
                assert same_bits(
                    tv.transversality_residual_control_classical(p, x, u, lam),
                    reference_transversality_control_classical(p, x, u, lam),
                ), (f, g)


class TestControlClassicalTransversality:
    def test_constant_multiplier_family(self):
        p = endpoint_tracking_control(201)
        x = tv.GridFunction.from_callable(p.scale, lambda t: (t * t + 1) / 2)
        u = tv.GridFunction(p.scale, np.zeros(201))
        h = 2.0 / 200
        for c in (0.0, 0.5, -1.0):
            lam = tv.GridFunction(p.scale, np.full(201, c))
            res = tv.transversality_residual_control_classical(p, x, u, lam)
            # residual = c - c * (integral of t) = c (1 + h) on the left sums
            assert res == pytest.approx(c * (1 + h), abs=1e-12)

    def test_z_free_hamiltonian_standard_condition(self):
        ts = tv.TimeScale.uniform(0, 2, 50)
        p = tv.ControlProblem(ts, tv.parse("u^2 + x^2"), tv.parse("u"), 0.0)
        x = tv.GridFunction(ts, np.zeros(50))
        u = tv.GridFunction(ts, np.zeros(50))
        lam = tv.GridFunction(ts, np.zeros(50))
        assert tv.transversality_residual_control_classical(p, x, u, lam) == 0.0

    def test_integer_surrogate_value(self):
        # uniform sampling of [0, 3] with unit steps; H_z = 2 t^2 (z - 1)
        ts = tv.TimeScale.uniform(0, 3, 4)
        p = tv.ControlProblem(ts, tv.parse("u^2 + t^2*(z-1)^2"), tv.parse("u"), 0.0)
        x = tv.GridFunction.from_callable(ts, lambda t: 5 / 16 * t)
        u = tv.GridFunction(ts, np.full(4, 5 / 16))
        lam = tv.GridFunction(ts, np.full(4, -5 / 8))
        res = tv.transversality_residual_control_classical(p, x, u, lam)
        assert res == pytest.approx(-5 / 8 - 10 * (15 / 16 - 1), abs=1e-14)

    def test_rejected_on_discrete_scales(self, zgrid):
        p = endpoint_penalty_control(zgrid)
        zero = tv.GridFunction(zgrid, np.zeros(4))
        with pytest.raises(tv.ScaleMismatchError):
            tv.transversality_residual_control_classical(p, zero, zero, zero)


class TestSufficiency:
    def test_tracking_problem_is_sufficient(self):
        verdict = tv.sufficiency_check(endpoint_tracking_control(21))
        assert verdict.sufficient

    def test_length_functional_control_form(self):
        p = minimal_length_problem(2.0, 21)
        verdict = tv.sufficiency_check(p)
        assert verdict.sufficient

    @pytest.mark.parametrize("f", ["sqrt(1 + v^2) + 2*(z - 1)^2", "v^2 - x^2",
                                   "sqrt(1 + v^2) + 2*(z - 1)^2 + 0.5*cos(x)", "log(v)"])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_variational_problem_is_screened_in_its_control_form(self, f, seed):
        p = tv.VariationalProblem(tv.TimeScale.integer_range(0, 8), tv.parse(f), 0.0)
        got = tv.sufficiency_check(p, seed)
        want = tv.sufficiency_check(tv.ControlProblem.from_variational(p), seed)
        assert (got.status, got.reason, got.witness) == (want.status, want.reason, want.witness)

    def test_concave_cost_is_inconclusive_with_witness(self, zgrid):
        p = tv.ControlProblem(zgrid, tv.parse("0 - u^2"), tv.parse("u"), 0.0)
        verdict = tv.sufficiency_check(p)
        assert not verdict.sufficient
        assert verdict.witness is not None

    def test_affine_but_not_linear_dynamics(self, zgrid):
        p = tv.ControlProblem(zgrid, tv.parse("u^2"), tv.parse("u + 1"), 0.0)
        verdict = tv.sufficiency_check(p)
        assert verdict.status == "inconclusive"
        assert "linear" in verdict.reason

    def test_nonlinear_dynamics_fail_affinity_probe(self, zgrid):
        p = tv.ControlProblem(zgrid, tv.parse("u^2"), tv.parse("u^2"), 0.0)
        verdict = tv.sufficiency_check(p)
        assert not verdict.sufficient

    def test_dynamics_off_the_origin_by_rounding_are_not_linear(self):
        # g(t, 0, 0, 0) = 1e-13 is affine, not linear: the origin test is exact
        p = tv.ControlProblem(tv.TimeScale.integer_range(0, 8),
                              tv.parse("u^2 + x^2 + 3*(z - 1)^2"), tv.parse("u + 1e-13"), 0.0)
        verdict = tv.sufficiency_check(p)
        assert verdict.status == "inconclusive"
        assert verdict.reason == ("dynamics are affine but not linear: "
                                  "g(t,0,0,0) = 1.000e-13 at t = 0.0")
        assert verdict.witness == (0.0, (0.0, 0.0, 0.0))

    def test_undefined_dynamics_at_the_origin_are_inconclusive(self):
        # sqrt(t - 4) is undefined at t = 0..3: the first such t is the witness
        ts = tv.TimeScale.integer_range(0, 8)
        p = tv.ControlProblem(ts, tv.parse("u^2"), tv.parse("u + sqrt(t - 4)"), 0.0)
        verdict = tv.sufficiency_check(p)
        assert verdict.status == "inconclusive"
        assert verdict.witness == (0.0, (0.0, 0.0, 0.0))
        assert "g(t,0,0,0) = nan at t = 0.0" in verdict.reason

    def test_origin_witness_is_the_first_nonzero_point(self):
        ts = tv.TimeScale.integer_range(0, 8)
        p = tv.ControlProblem(ts, tv.parse("u^2"), tv.parse("u + sqrt(t)*(t - 3)^2"), 0.0)
        verdict = tv.sufficiency_check(p)
        assert verdict.witness == (1.0, (0.0, 0.0, 0.0))
        assert "g(t,0,0,0) = 4.000e+00 at t = 1.0" in verdict.reason

    def test_nonlinear_dynamics_name_their_first_nonzero_partial(self, zgrid):
        # g_xx is -1/4 at x = 0, so the first scale point is the witness
        p = tv.ControlProblem(zgrid, tv.parse("u^2"), tv.parse("sqrt(x + 1) - 1"), 0.0)
        verdict = tv.sufficiency_check(p)
        assert verdict.status == "inconclusive"
        assert verdict.reason == ("dynamics are not linear: g_xx = "
                                  "-(2*(1/(2*sqrt(x + 1))))/(2*sqrt(x + 1))^2 is not zero")
        assert verdict.witness == (0.0, (0.0, 0.0, 0.0))

    @pytest.mark.parametrize("g, partial, witness", [
        ("u + 1e-10*x^2", "g_xx = 2.0000000000000001e-10", (0.0, (0.0, 0.0, 0.0))),
        ("u + 1e-10*u*x", "g_xu = 1e-10", (0.0, (0.0, 0.0, 0.0))),
        # g_uz = 2e-11*z vanishes at z = 0 on every scale point: no witness
        ("u*(1 + 1e-11*z^2)", "g_uz = 9.9999999999999994e-12*(2*z)", None),
        ("u + 1e-10*z^2", "g_zz = 2.0000000000000001e-10", (0.0, (0.0, 0.0, 0.0))),
    ])
    def test_nearly_linear_dynamics_are_inconclusive(self, g, partial, witness):
        # a sampled second-difference test at a 1e-9 tolerance cannot tell these
        # from linear dynamics; their second partials do not vanish
        p = tv.ControlProblem(tv.TimeScale.integer_range(0, 8),
                              tv.parse("u^2 + x^2 + 3*(z - 1)^2"), tv.parse(g), 0.0)
        verdict = tv.sufficiency_check(p)
        assert verdict.status == "inconclusive"
        assert verdict.reason == f"dynamics are not linear: {partial} is not zero"
        assert verdict.witness == witness
        assert witness is None or all(type(v) is float for v in (witness[0], *witness[1]))

    def test_cost_undefined_at_a_scale_point_is_inconclusive(self):
        # u/(t - 4) divides by zero at t = 4, where an np.float64 quotient would
        # be infinite and pass the midpoint test
        p = tv.ControlProblem(tv.TimeScale.integer_range(0, 8), tv.parse("u/(t - 4)"),
                              tv.parse("u"), 0.0)
        verdict = tv.sufficiency_check(p)
        assert verdict.reason == "running cost undefined inside the sampling box: float division by zero"
        assert verdict.witness[0] == 4.0

    def test_compile_cache_clear_empties_the_sampler_memo(self, zgrid):
        # a run that clears the caches between CLI calls pays what a fresh process pays
        verdict = tv.sufficiency_check(endpoint_penalty_control(zgrid), seed=5)
        assert tv.conditions._sampler_state.cache_info().currsize > 0
        tv.compile_fn.cache_clear()
        assert tv.conditions._sampler_state.cache_info().currsize == 0
        assert tv.expr._compile_shape.cache_info().currsize == 0
        assert tv.sufficiency_check(endpoint_penalty_control(zgrid), seed=5) == verdict

    def test_verdict_is_deterministic(self, zgrid):
        p = endpoint_penalty_control(zgrid)
        one = tv.sufficiency_check(p, seed=3)
        two = tv.sufficiency_check(p, seed=3)
        assert one == two

    _COSTS = ("u^2 + x^2 + 3*(z - 1)^2", "0 - u^2 - x^2", "u^2 + 2*(z - 1)^2 + 0.3*cos(x)",
              "u^2 - 0.001*u^4", "u^2 + exp(u - 40)", "u^2 + sqrt(x + 4)")
    _DYNAMICS = ("u", "u - 0.5*x", "u + 1", "u^2", "sqrt(x + 1) - 1", "u + sqrt(t - 4)",
                 "u*t - x*t^2 + 0.2*z")
    # the dynamics above that are not linear, and the second partial each names
    _NOT_LINEAR = {"u^2": "g_uu = 2",
                   "sqrt(x + 1) - 1": "g_xx = -(2*(1/(2*sqrt(x + 1))))/(2*sqrt(x + 1))^2"}

    def test_screen_matches_the_reference_draws(self):
        """Where every second partial of ``g`` is zero, status, reason and the
        bits of every witness number equal those of the screen that drew with
        ``rng.choice`` into numpy arrays and probed ``g`` at 64 sampled points;
        elsewhere the verdict names the first second partial that is not zero,
        with the first scale point as the witness."""

        def bits(witness):
            if isinstance(witness, tuple):
                return tuple(bits(w) for w in witness)
            return witness if witness is None else float(witness).hex()

        scales = [tv.TimeScale.integer_range(0, 8), tv.TimeScale.uniform(0.0, 1.0, 120),
                  tv.TimeScale.q_grid(1.04, 0, 82, include_zero=True)]
        statuses = set()
        for ts in scales:
            for f in self._COSTS:
                for g in self._DYNAMICS:
                    p = tv.ControlProblem(ts, tv.parse(f), tv.parse(g), 0.0)
                    for seed in (0, 1, 2, 31):
                        got, case = tv.sufficiency_check(p, seed), (f, g, ts.n, seed)
                        if g in self._NOT_LINEAR:
                            assert got.status == "inconclusive", case
                            assert got.reason == (f"dynamics are not linear: "
                                                  f"{self._NOT_LINEAR[g]} is not zero"), case
                            assert bits(got.witness) == bits((ts.points[0], (0.0, 0.0, 0.0))), case
                        else:
                            want = reference_sufficiency_check(p, seed)
                            assert (got.status, got.reason) == (want.status, want.reason), case
                            assert bits(got.witness) == bits(want.witness), case
                        statuses.add(" ".join(got.reason.split()[:3]))
        assert len(statuses) == 6, statuses  # every branch of the screen was taken

    def test_witness_numbers_are_python_floats(self, zgrid):
        def numbers(witness):
            for w in witness:
                yield from numbers(w) if isinstance(w, tuple) else (w,)

        cases = [("u^2", "u^2"), ("u^2", "sqrt(x + 1) - 1"), ("u^2", "u + 1"),
                 ("0 - u^2", "u"), ("log(u)", "u")]
        for f, g in cases:
            verdict = tv.sufficiency_check(tv.ControlProblem(zgrid, tv.parse(f), tv.parse(g), 0.0))
            assert verdict.witness is not None, (f, g)
            assert all(type(v) is float for v in numbers(verdict.witness)), (f, g, verdict)
            assert "np." not in repr(verdict)


class TestResidualReport:
    def test_sup_norm_matches_families(self, zgrid):
        p = tv.VariationalProblem(zgrid, tv.parse("v^2/2"), 0.0)
        x = tv.GridFunction.from_callable(zgrid, lambda t: t * t)
        rep = tv.variational_residuals(p, x)
        expected = max(np.max(np.abs(rep.el_residuals)), abs(rep.transversality))
        assert rep.sup_norm == expected

    def test_json_round_trip(self, zgrid):
        import json

        p = tv.VariationalProblem(zgrid, tv.parse("v^2/2"), 0.0)
        x = tv.GridFunction.from_callable(zgrid, lambda t: t)
        d = tv.variational_residuals(p, x).to_dict()
        text = json.dumps(d)
        assert json.loads(text) == d

    def test_table_lists_every_point(self, zgrid):
        p = endpoint_penalty_control(zgrid)
        zero = tv.GridFunction(zgrid, np.zeros(4))
        table = tv.hamiltonian_residuals(p, zero, zero, zero).to_table()
        assert table.count("\n") >= zgrid.n
        assert "sup norm" in table
