"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines
inline.  Criterion 3 carries known-unattainable error bounds at the stated
mesh; that test is marked strict-xfail with the analysis, and the companion
test shows the same bounds hold once the mesh is fine enough for the
first-order transcription.
"""

import math
import time

import numpy as np
import pytest

import tsvar as tv
from helpers import (
    admissible_grid,
    central_difference,
    endpoint_penalty_control,
    endpoint_tracking_control,
    minimal_length_problem,
    minimal_slope_root,
    random_expr_and_env,
    random_quadratic_problem,
    random_scale,
    reference_variational,
    stationarity_residual,
)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_integer_scale_exactness():
    """Integer-scale control problem returns the closed-form line 5/16 * t."""
    t0 = time.perf_counter()
    p = endpoint_penalty_control(tv.TimeScale.integer_range(0, 3))
    sol = tv.solve_control(p, tv.SolveOptions(gradient_tolerance=1e-12))
    elapsed = time.perf_counter() - t0
    expected = 5 / 16 * p.scale.points
    err = float(np.max(np.abs(sol.x.values - expected)))
    sup = sol.report.sup_norm
    _report(
        1,
        sol.converged and err <= 1e-10 and sup <= 1e-9 and elapsed < 1.0,
        f"x error {err:.2e} (<=1e-10), Hamiltonian residuals {sup:.2e} (<=1e-9), "
        f"{elapsed:.2f}s (<1s)",
    )


def test_criterion_2_penalized_length_slopes():
    """Uniform 200-point mesh: solved slopes match the boundary-equation root."""
    t0 = time.perf_counter()
    opts = tv.SolveOptions(max_iterations=4000)
    betas = (1.0, 2.0, 15.0)
    slopes = []
    prev = None
    ok = True
    details = []
    for beta in betas:
        sol = tv.solve_variational(minimal_length_problem(beta, 200), opts, x0=prev)
        prev = sol.x
        per_interval = sol.x.delta_values
        variance = float(np.var(per_interval))
        root = minimal_slope_root(beta)
        slopes.append(sol.slope)
        ok = ok and sol.converged and variance <= 1e-8 and abs(sol.slope - root) <= 1e-4
        details.append(f"b={beta:g}: slope {sol.slope:.6f} vs root {root:.6f}")
    ok = ok and slopes == sorted(slopes) and slopes[0] < slopes[1] < slopes[2]
    big = tv.solve_variational(minimal_length_problem(1e4, 200), opts, x0=prev)
    ok = ok and big.converged and 0.999 <= big.slope <= 1.0
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    _report(
        2,
        ok,
        "; ".join(details)
        + f"; strictly increasing; slope(1e4) = {big.slope:.6f} in [0.999, 1]; "
        f"{elapsed:.1f}s (<10s)",
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "left-rectangle delta quadrature makes the discrete optimum "
        "x(T) = 1/(1+h): endpoint error 9.9e-3 at a 201-point mesh, above the "
        "stated 1e-3/5e-3 bounds; those bounds need about 2001/399 points "
        "(see the companion test for the fine-mesh check)"
    ),
)
def test_criterion_3_continuum_tracking_bounds_at_stated_mesh():
    """End-value-coupled control problem at 201 points against the continuum."""
    p = endpoint_tracking_control(201)
    u0 = tv.GridFunction(p.scale, np.full(201, 0.5))
    sol = tv.solve_control(p, tv.SolveOptions(max_iterations=2000), u0=u0)
    cont = (p.scale.points**2 + 1) / 2
    end_err = abs(sol.x.values[-1] - 1.0)
    sup_err = float(np.max(np.abs(sol.x.values - cont)))
    verdict = sol.verdict
    _report(
        3,
        sol.converged and end_err <= 1e-3 and sup_err <= 5e-3 and verdict.sufficient,
        f"x(1) error {end_err:.2e} (target 1e-3), sup error {sup_err:.2e} "
        f"(target 5e-3): first-order transcription gives x(T) = 1/(1+h) "
        f"= {1 / 1.01:.6f} at h = 0.01, so the stated mesh cannot reach the bounds",
    )


def test_criterion_3_companion_solver_and_sufficiency():
    """The attainable parts of criterion 3, plus the bounds at a fine mesh."""
    t0 = time.perf_counter()
    p = endpoint_tracking_control(201)
    u0 = tv.GridFunction(p.scale, np.full(201, 0.5))
    sol = tv.solve_control(p, tv.SolveOptions(max_iterations=2000), u0=u0)
    h = 2.0 / 200
    ok = (
        sol.converged
        and sol.verdict.sufficient
        and float(np.nanmax(np.abs(sol.u.values))) <= 1e-6
        and abs(sol.x.values[-1] - 1.0 / (1.0 + h)) <= 1e-9
    )
    # first order in the mesh width: the stated bounds hold at 2001 points
    fine = tv.solve_control(endpoint_tracking_control(2001),
                            tv.SolveOptions(max_iterations=2000))
    cont = (fine.x.scale.points**2 + 1) / 2
    end_err = abs(fine.x.values[-1] - 1.0)
    sup_err = float(np.max(np.abs(fine.x.values - cont)))
    elapsed = time.perf_counter() - t0
    ok = ok and end_err <= 1e-3 and sup_err <= 5e-3 and elapsed < 5.0
    _report(
        3,
        ok,
        f"(companion) zero control recovered, verdict sufficient, discrete end "
        f"value matches 1/(1+h); at 2001 points x(1) error {end_err:.2e} <= 1e-3 "
        f"and sup error {sup_err:.2e} <= 5e-3; {elapsed:.1f}s (<5s)",
    )


def test_criterion_4_geometric_scale_pipeline():
    """Well-posed geometric-scale variant: oracle slope 9/37, solver matches."""
    scale = tv.TimeScale.q_grid(2.0, 0, 2, include_zero=True)  # {0, 1, 2, 4}
    p = endpoint_penalty_control(scale)
    oracle = tv.brute_force_oracle(p)
    oracle_err = abs(oracle.slope - 9 / 37)
    sol = tv.solve_control(p, tv.SolveOptions(gradient_tolerance=1e-12))
    match = float(np.max(np.abs(sol.x.values - oracle.x.values)))
    print(
        "\nnote: the often-quoted closed-form slope 9/26 for this problem on the "
        "pure geometric scale {2^k} is NOT reproduced here: the horizon endpoints "
        "0 and 3 are not points of that scale, and the weighted-sum identity "
        "behind the quoted value carries a sign error (the sign-corrected sum "
        "gives 9/28).  The well-posed variant on {0, 1, 2, 4} is validated "
        "against the exact oracle instead."
    )
    _report(
        4,
        oracle_err <= 1e-13 and sol.converged and match <= 1e-9,
        f"oracle slope = 9/37 (err {oracle_err:.1e}), solver matches oracle to "
        f"{match:.2e} (<=1e-9); quoted geometric-scale value recorded as unverified",
    )


def test_criterion_5_operator_identity_suites():
    """Single-step, by-parts, fundamental-theorem, and boundary-form identities."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = {"step": 0.0, "parts": 0.0, "ftc": 0.0, "forms": 0.0}
    for _ in range(100):
        ts = random_scale(rng, max_points=40, min_gap=0.05)
        fv = rng.uniform(-2, 2, size=ts.n)
        gv = rng.uniform(-2, 2, size=ts.n)
        f = tv.GridFunction(ts, fv)
        g = tv.GridFunction(ts, gv)
        for i in range(ts.kappa_last() + 1):
            worst["step"] = max(
                worst["step"],
                abs(f.delta_integral(i, ts.sigma(i)) - ts.mu(i) * fv[i]),
            )
        lhs = math.fsum(
            fv[i + 1] * g.delta_derivative(i) * ts.mu(i) for i in range(ts.n - 1)
        )
        rhs = fv[-1] * gv[-1] - fv[0] * gv[0] - math.fsum(
            f.delta_derivative(i) * gv[i] * ts.mu(i) for i in range(ts.n - 1)
        )
        worst["parts"] = max(worst["parts"], abs(lhs - rhs))
        deriv = tv.GridFunction(ts, np.append(f.delta_values, 0.0))
        worst["ftc"] = max(
            worst["ftc"],
            abs(deriv.delta_integral(0, ts.n - 1) - (fv[-1] - fv[0])),
        )
        p = random_quadratic_problem(rng, ts)
        x = admissible_grid(rng, p)
        worst["forms"] = max(
            worst["forms"],
            abs(
                tv.transversality_residual(p, x)
                - reference_variational(p, x)["regular"]
            ),
        )
    elapsed = time.perf_counter() - t0
    ok = all(v <= 1e-12 for v in worst.values()) and elapsed < 5.0
    _report(
        5,
        ok,
        f"worst deviations: step {worst['step']:.1e}, by-parts {worst['parts']:.1e}, "
        f"fundamental {worst['ftc']:.1e}, boundary forms {worst['forms']:.1e} "
        f"(all <=1e-12); {elapsed:.1f}s (<5s)",
    )


def test_criterion_6_oracle_equivalence():
    """Three-way agreement on random quadratic problems plus residual closure."""
    rng = np.random.default_rng(4096)
    opts = tv.SolveOptions(max_iterations=3000, gradient_tolerance=1e-11)
    worst_gap = 0.0
    worst_residual = 0.0
    for _ in range(50):
        p = random_quadratic_problem(rng, random_scale(rng, max_points=8, min_gap=0.1))
        oracle = tv.brute_force_oracle(p)
        direct = tv.solve_variational(p, opts)
        newton = tv.solve_stationarity(p, opts)
        assert direct.converged and newton.converged
        worst_gap = max(
            worst_gap,
            float(np.max(np.abs(direct.x.values - oracle.x.values))),
            float(np.max(np.abs(newton.x.values - oracle.x.values))),
        )
        worst_residual = max(
            worst_residual, direct.report.sup_norm, newton.report.sup_norm
        )
    _report(
        6,
        worst_gap <= 1e-7 and worst_residual <= 1e-8,
        f"50 random quadratics: worst cross-method gap {worst_gap:.2e} (<=1e-7), "
        f"worst converged residual {worst_residual:.2e} (<=1e-8)",
    )


def test_criterion_7_differentiation_against_finite_differences():
    """Symbolic partials of 1000 random expressions vs central differences."""
    rng = np.random.default_rng(77)
    worst = 0.0
    checked = 0
    for _ in range(1000):
        e, env = random_expr_and_env(rng)
        for name in tv.expr.VARIABLES:
            sym = tv.evaluate(tv.diff(e, name), env)
            fd = central_difference(e, env, name)
            if fd is None:
                continue  # every probe stepped outside the safe domain
            checked += 1
            rel = abs(sym - fd) / max(1.0, abs(sym), abs(fd))
            worst = max(worst, rel)
    _report(
        7,
        worst <= 1e-6 and checked >= 5000,
        f"{checked} partials across 1000 expressions, worst relative deviation "
        f"{worst:.2e} (<=1e-6)",
    )


def test_criterion_8_gradient_transversality_identity():
    """The objective gradient's end coordinate equals the boundary residual.

    The identity is algebraic, so half the draws use curved Lagrangians
    rather than quadratics.
    """
    rng = np.random.default_rng(88)
    worst = 0.0
    for k in range(20):
        scale = random_scale(rng, max_points=8)
        if k % 2 == 0:
            p = random_quadratic_problem(rng, scale)
        else:
            a, b = rng.uniform(0.2, 2.0, size=2)
            p = tv.VariationalProblem(
                scale,
                tv.parse(
                    f"sqrt(1 + v^2) + ({a:.17g})*sin(x)*z + ({b:.17g})*(z-1)^2 + cos(t)*x"
                ),
                float(rng.uniform(-1, 1)),
            )
        x = admissible_grid(rng, p)
        # the gradient over x[1:] is h_i - h_{i+1} with h_m = 0
        h = stationarity_residual(p, x)
        tc = tv.transversality_residual(p, x)
        worst = max(worst, abs(h[-1] - tc))
    _report(
        8,
        worst <= 1e-10,
        f"20 random discrete problems (quadratic and curved): max |gradient end "
        f"coordinate - boundary residual| = {worst:.2e} (<=1e-10)",
    )
