"""Seeded robustness corpus: every solve returns, or raises a ``TsvarError``.

Random costs and dynamics from ``helpers._random_tree``, on integer, uniform
and q-grid scales of 3 to 9 points, go through the three solvers and the
oracle; each solution's ``report``, ``lam`` and ``verdict`` are read.  The
suite turns every ``RuntimeWarning`` into an error, so a numpy warning is an
escape too.  ``max_iterations`` is small, so that a stalled solve cannot eat
the time budget.  The problems below the corpus are its findings, each of
which once escaped as a warning or a bare ``ValueError``/``OverflowError``.
"""

import re

import numpy as np
import pytest

import tsvar as tv
from helpers import _random_tree
from tsvar.cli import load_problem_file, main

OPTS = tv.SolveOptions(max_iterations=20)
PROBLEMS = 40  # of each scale kind


def _scale(rng: np.random.Generator, kind: str) -> tv.TimeScale:
    n = int(rng.integers(3, 10))
    if kind == "integers":
        a = int(rng.integers(-3, 3))
        return tv.TimeScale.integer_range(a, a + n - 1)
    if kind == "uniform":
        return tv.TimeScale.uniform(0.0, float(rng.uniform(0.5, 2.0)), n)
    return tv.TimeScale.q_grid(float(rng.uniform(1.1, 2.0)), 0, n - 2, include_zero=True)


def _rename(e: tv.Expr, names: dict) -> tv.Expr:
    for old, new in names.items():
        e = tv.expr.substitute(e, old, tv.expr.Var(new))
    return e


def _outcomes(solve, p, *args) -> list[str]:
    """``returned`` or ``raised`` for the solve and for each read of its
    solution; anything but a ``TsvarError`` propagates and fails the test."""
    try:
        sol = solve(p, *args)
    except tv.TsvarError:
        return ["raised"]
    out = ["returned"]
    for read in (lambda: sol.report, lambda: sol.lam, lambda: sol.verdict):
        try:
            read()
            out.append("returned")
        except tv.TsvarError:
            out.append("raised")
    return out


def test_random_problems_return_or_raise_a_tsvar_error():
    rng = np.random.default_rng(1)
    seen = {}
    for kind in ("integers", "uniform", "qgrid") * PROBLEMS:
        ts = _scale(rng, kind)
        f = _random_tree(rng, int(rng.integers(1, 4)))
        g = _random_tree(rng, int(rng.integers(1, 4)))
        alpha = float(rng.uniform(-1.0, 1.0))
        vp = tv.VariationalProblem(ts, _rename(f, {"u": "v", "lam": "z"}), alpha)
        cp = tv.ControlProblem(ts, _rename(f, {"v": "u", "lam": "z"}),
                               _rename(g, {"v": "u", "lam": "z"}), alpha)
        for name, solve, p, args in [
            ("solve_variational", tv.solve_variational, vp, (OPTS,)),
            ("solve_stationarity", tv.solve_stationarity, vp, (OPTS,)),
            ("solve_control", tv.solve_control, cp, (OPTS,)),
            ("oracle", tv.brute_force_oracle, vp, ()),
            ("oracle", tv.brute_force_oracle, cp, ()),
        ]:
            seen.setdefault(name, set()).update(_outcomes(solve, p, *args))
    # the corpus is not vacuous: every entry point both returned and raised
    assert all(s == {"returned", "raised"} for s in seen.values()), seen


# The corpus's findings, on problems at the default options too.  Each solve
# stalls where its cost runs off, and its report either carries inf or
# raises ``EvalError``.
_WARNED = [
    # the Newton core's multiplier arithmetic overflowed with a numpy warning
    tv.ControlProblem(tv.TimeScale.uniform(0.0, 0.5071557, 9),
                      tv.parse("(1.604 + 1.54)/(t - 0.743) - 1.915*1.181*x"),
                      tv.parse("exp(0.903 + u)"), -0.2467995975447539),
    # the Euler-Lagrange difference quotient overflowed with a numpy warning
    tv.VariationalProblem(tv.TimeScale.uniform(0.0, 1.2752773, 9),
                          tv.parse("-(exp(t)*exp(v))"), 0.811030236802569),
]
_UNDEFINED = [
    # the report's partial is NaN at the solution's slopes: a bare ValueError
    ("[timescale]\nkind = integers\na = 2\nb = 4\n[problem]\ntype = variational\n"
     "f = sqrt(cos(v)) + 2*v\nalpha = -0.12562657488571016\n",
     "error: -sin(u)/(2*sqrt(cos(u))) + 2 is nan at t = 3.0\n"),
    # the report's transversality integral overflows: a bare OverflowError
    ("[timescale]\nkind = explicit\npoints = 0, 1, 1.93562665, 3.74665053, 7.25211661\n"
     "[problem]\ntype = control\nf = -(x + x)*1.114^u\ng = z\n"
     "alpha = 0.38134827551801265\n",
     "error: residuals undefined: intermediate overflow in fsum\n"),
]


@pytest.mark.parametrize("p", _WARNED, ids=["control", "variational"])
@pytest.mark.parametrize("opts", [OPTS, tv.SolveOptions()], ids=["20 steps", "default"])
def test_an_overflowing_residual_reads_inf_without_a_warning(p, opts):
    solve = tv.solve_control if isinstance(p, tv.ControlProblem) else tv.solve_variational
    sol = solve(p, opts)
    assert not sol.converged
    assert not np.isfinite(sol.report.sup_norm) or sol.report.sup_norm > 1e300


@pytest.mark.parametrize("text, err", _UNDEFINED, ids=["nan partial", "integral overflow"])
def test_an_undefined_report_is_one_error_line(text, err, tmp_path, capsys):
    path = tmp_path / "p.ini"
    path.write_text(text)
    pf = load_problem_file(path)
    solve = tv.solve_control if pf.problem_type == "control" else tv.solve_variational
    sol = solve(pf.build_problem())
    with pytest.raises(tv.EvalError, match="^" + re.escape(err[len("error: "):-1]) + "$"):
        sol.report
    assert main(["solve", str(path), "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == err
