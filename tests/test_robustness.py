"""Seeded robustness corpus: every solve returns, or raises a ``TsvarError``,
and every command on an edited problem file exits with a documented code.

Problems: random costs and dynamics from ``helpers._random_tree``, on
integer, uniform and q-grid scales of 3 to 9 points, go through the three
solvers and the oracle; each solution's ``report`` and ``verdict`` are read.
The suite turns every ``RuntimeWarning`` into an error, so a numpy warning is
an escape too.  ``max_iterations`` is small, so that a stalled solve cannot
eat the time budget.  The problems below the corpus are its findings, each of
which once escaped as a warning or a bare ``ValueError``/``OverflowError``.

Files: README's example file and the CI control file, with each value
replaced in turn by one of ``_EDITS``, go through ``info``, ``solve`` and
``verify`` (against the unedited file's solution) by ``cli.main``.
"""

import re
from pathlib import Path

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
    for read in (lambda: sol.report, lambda: sol.verdict):
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


# -- files: every value of two problem files, edited ---------------------------

_README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
(_README_FILE,) = re.findall(r"^```ini\n(.*?)^```$", _README, flags=re.M | re.S)
# the control file of the CI workflow's installed-CLI step
_CONTROL_FILE = ("[timescale]\nkind = uniform\na = 0\nb = 1\nn = 50\n\n[problem]\n"
                 "type = control\nf = u^2 + x^2 + 3*(z-1)^2\ng = u - 0.5*x\nalpha = 0\n")
_FILES = {"readme": _README_FILE, "control": _CONTROL_FILE}
_EDITS = ["nan", "inf", "-1", "0", "1e308", "", "word"]


def _edited(text: str):
    """``(id, text)`` of each copy of ``text`` with one value replaced by one
    of ``_EDITS``.  The value is the text after a line's last ``=``, so the
    edit of ``params = beta = 1`` is that of ``beta``'s value."""
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        if "=" not in line or line.lstrip().startswith(("#", ";", "[")):
            continue
        key = line.rsplit("=", 1)[0].strip()
        for value in _EDITS:
            edited = [*lines[:i], f"{key} = {value}\n", *lines[i + 1:]]
            yield f"{key.replace(' ', '')}={value}", "".join(edited)


_CASES = [(name, *case) for name, text in _FILES.items() for case in _edited(text)]


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    """The ``solution.csv`` of each unedited file, for ``verify``."""
    out = {}
    for name, text in _FILES.items():
        d = tmp_path_factory.mktemp(name)
        (d / "p.ini").write_text(text)
        assert main(["solve", str(d / "p.ini"), "--out-dir", str(d)]) == 0
        out[name] = str(d / "solution.csv")
    return out


def test_the_file_corpus_edits_every_value():
    assert len(_CASES) == (10 + 8) * len(_EDITS)


@pytest.mark.parametrize("name, edit, text", _CASES, ids=[f"{n}-{e}" for n, e, _ in _CASES])
def test_an_edited_file_exits_with_a_documented_code(name, edit, text, solved, tmp_path, capsys):
    path = tmp_path / "p.ini"
    path.write_text(text)
    for argv in (["info", path], ["solve", path, "--out-dir", tmp_path], ["verify", path, solved[name]]):
        code = main([str(a) for a in argv])
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), (argv[0], code, err)
        if code == 1:
            assert re.fullmatch(r"error: [^\n]*\n", err), (argv[0], err)
