"""Command-line behaviour: file loading, commands, exit codes, determinism."""

import csv
import math

import numpy as np
import pytest

import tsvar as tv
from tsvar.cli import load_problem_file, main, write_solution_csv, write_solution_json
from helpers import minimal_slope_root, reference_solution_csv, reference_solution_json

PENALIZED_LENGTH = """\
[timescale]
kind = uniform
a = 0
b = 1
n = 100

[problem]
type = variational
f = sqrt(1 + v^2) + beta*(z-1)^2
alpha = 0
params = beta = 1

[solver]
max_iterations = 2000
"""

INTEGER_CONTROL = """\
# endpoint-penalty control problem on the integer scale
[timescale]
kind = integers
a = 0
b = 3

[problem]
type = control
f = u^2 + t^2*(z-1)^2
g = u
alpha = 0

[solver]
gradient_tolerance = 1e-12
"""

TRACKING_CONTROL = """\
[timescale]
kind = uniform
a = -1
b = 1
n = 201

[problem]
type = control
f = u^2
g = u + z*t
alpha = 1
"""


@pytest.fixture
def length_file(tmp_path):
    path = tmp_path / "length.toml"
    path.write_text(PENALIZED_LENGTH)
    return path


@pytest.fixture
def control_file(tmp_path):
    path = tmp_path / "control.toml"
    path.write_text(INTEGER_CONTROL)
    return path


@pytest.fixture
def tracking_file(tmp_path):
    path = tmp_path / "tracking.toml"
    path.write_text(TRACKING_CONTROL)
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestProblemFiles:
    def test_load_penalized_length(self, length_file):
        pf = load_problem_file(length_file)
        assert pf.problem_type == "variational"
        assert pf.scale.n == 100
        assert pf.params == {"beta": 1.0}
        assert isinstance(pf.build_problem(), tv.VariationalProblem)

    def test_substitution_override(self, length_file):
        pf = load_problem_file(length_file)
        p2 = pf.build_problem({"beta": 2.0})
        assert "2" in tv.to_text(p2.f)

    def test_unknown_identifier_is_load_error(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text(PENALIZED_LENGTH.replace("params = beta = 1\n", ""))
        with pytest.raises(tv.ProblemFileError, match="beta"):
            load_problem_file(path)

    def test_scientific_literals_survive_identifier_check(self, tmp_path):
        path = tmp_path / "sci.toml"
        path.write_text(
            "[timescale]\nkind = integers\na = 0\nb = 3\n"
            "[problem]\ntype = variational\nf = 1e-3*v^2 + beta*(z-1)^2\n"
            "alpha = 0\nparams = beta = 1e-5\n"
        )
        pf = load_problem_file(path)
        assert isinstance(pf.build_problem(), tv.VariationalProblem)

    @pytest.mark.parametrize("edit, message", [
        (("params = beta = 1\n", ""),
         r"unknown identifier 'beta'.*\(missing parameter substitution\?\)"),
        (("beta = 1", "exp = 1"), "collides with a reserved variable or function"),
    ])
    def test_parameter_errors_keep_their_messages(self, tmp_path, edit, message):
        path = tmp_path / "bad.toml"
        path.write_text(PENALIZED_LENGTH.replace(*edit))
        with pytest.raises(tv.ProblemFileError, match=message):
            load_problem_file(path)

    def test_param_colliding_with_reserved_name(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text(PENALIZED_LENGTH.replace("beta = 1", "v = 1"))
        with pytest.raises(tv.ProblemFileError, match="reserved"):
            load_problem_file(path)

    def test_malformed_section_named_in_error(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text("[nonsense]\nk = 1\n")
        with pytest.raises(tv.ProblemFileError, match="nonsense"):
            load_problem_file(path)

    def test_line_numbers_in_diagnostics(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text(
            "[timescale]\nkind = integers\na = zero\nb = 3\n"
            "[problem]\ntype = variational\nf = v^2\nalpha = 0\n"
        )
        with pytest.raises(tv.ProblemFileError, match="line 3"):
            load_problem_file(path)

    def test_duplicate_section_rejected(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text("[timescale]\nkind = integers\na = 0\nb = 2\n[timescale]\n")
        with pytest.raises(tv.ProblemFileError, match="duplicate"):
            load_problem_file(path)

    def test_missing_problem_section(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text("[timescale]\nkind = integers\na = 0\nb = 2\n")
        with pytest.raises(tv.ProblemFileError, match=r"\[problem\]"):
            load_problem_file(path)

    def test_finite_difference_step_is_an_unexpected_key(self, tmp_path):
        # the key configured the finite-difference Jacobian, which the
        # structured Newton solvers no longer build
        path = tmp_path / "old.toml"
        path.write_text(PENALIZED_LENGTH + "finite_difference_step = 1e-6\n")
        with pytest.raises(tv.ProblemFileError, match="unexpected key 'finite_difference_step'"):
            load_problem_file(path)

    def test_too_few_points_is_a_load_error(self, tmp_path):
        path = tmp_path / "tiny.toml"
        path.write_text(
            "[timescale]\nkind = integers\na = 0\nb = 1\n"
            "[problem]\ntype = variational\nf = v^2\nalpha = 0\n"
        )
        with pytest.raises(tv.ProblemFileError, match="three"):
            load_problem_file(path)
        assert main(["solve", str(path)]) == 1

    def test_qgrid_and_explicit_kinds(self, tmp_path):
        path = tmp_path / "q.toml"
        path.write_text(
            "[timescale]\nkind = qgrid\nq = 2\nk_min = 0\nk_max = 2\n"
            "include_zero = true\n"
            "[problem]\ntype = variational\nf = v^2\nalpha = 0\n"
        )
        assert load_problem_file(path).scale.points.tolist() == [0, 1, 2, 4]
        path2 = tmp_path / "e.toml"
        path2.write_text(
            "[timescale]\nkind = explicit\npoints = 0, 0.5, 2\n"
            "[problem]\ntype = variational\nf = v^2\nalpha = 0\n"
        )
        assert load_problem_file(path2).scale.points.tolist() == [0, 0.5, 2]


class TestSolveCommand:
    def test_integer_control_solution_values(self, control_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["solve", str(control_file), "--out-dir", str(out)]) == 0
        rows = read_csv(out / "solution.csv")
        xs = [float(r["x"]) for r in rows]
        assert xs == pytest.approx([0.0, 0.3125, 0.625, 0.9375], abs=1e-10)
        assert rows[-1]["u"] == ""  # undefined shifted sample at the maximum
        captured = capsys.readouterr().out
        assert "objective" in captured and "sufficient" in captured

    def test_penalized_length_slope_column(self, length_file, tmp_path):
        out = tmp_path / "out"
        assert main(["solve", str(length_file), "--out-dir", str(out)]) == 0
        rows = read_csv(out / "solution.csv")
        xs = np.array([float(r["x"]) for r in rows])
        ts = np.array([float(r["t"]) for r in rows])
        slopes = np.diff(xs) / np.diff(ts)
        assert np.max(np.abs(slopes - 0.7104241)) <= 1e-6
        assert abs(np.max(slopes) - np.min(slopes)) <= 1e-8

    def test_parse_failure_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.toml"
        path.write_text("[oops]\n")
        assert main(["solve", str(path)]) == 1
        assert "oops" in capsys.readouterr().err

    def test_non_convergence_exits_two(self, tmp_path):
        path = tmp_path / "hard.toml"
        path.write_text(
            PENALIZED_LENGTH.replace("max_iterations = 2000", "max_iterations = 1")
        )
        out = tmp_path / "out"
        assert main(["solve", str(path), "--out-dir", str(out)]) == 2
        assert (out / "solution.csv").exists()  # best iterate still written

    def test_json_carries_verdict_and_grids(self, control_file, tmp_path):
        import json

        out = tmp_path / "out"
        main(["solve", str(control_file), "--out-dir", str(out)])
        doc = json.loads((out / "solution.json").read_text())
        assert doc["sufficiency"]["status"] == "sufficient"
        assert doc["grids"]["u"][-1] is None
        assert doc["residuals"]["sup_norm"] <= 1e-9

    def test_report_is_computed_once(self, control_file, tmp_path, monkeypatch):
        # the CSV, the JSON and the stdout line share one report
        import tsvar.solver

        calls = []
        original = tsvar.solver.hamiltonian_residuals

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(tsvar.solver, "hamiltonian_residuals", counted)
        assert main(["solve", str(control_file), "--out-dir", str(tmp_path)]) == 0
        assert len(calls) == 1

    def test_multipliers_are_recovered_once(self, control_file, tmp_path, monkeypatch):
        # Solution.lam is derived on read: the report, the CSV and the JSON
        # share one recovery after the solve
        import tsvar.cli
        import tsvar.solver

        calls = []
        solved = []
        recover, solve = tsvar.solver.recover_costate, tsvar.cli.solve_control

        def counted(*args):
            if solved:
                calls.append(args)
            return recover(*args)

        def solve_then_count(*args, **kwargs):
            solved.append(solve(*args, **kwargs))
            return solved[-1]

        monkeypatch.setattr(tsvar.solver, "recover_costate", counted)
        monkeypatch.setattr(tsvar.cli, "solve_control", solve_then_count)
        assert main(["solve", str(control_file), "--out-dir", str(tmp_path)]) == 0
        assert len(calls) == 1
        rows = read_csv(tmp_path / "solution.csv")
        lam = [float(row["lambda_sigma"] or "nan") for row in rows]
        assert np.array_equal(lam, solved[0].lam.values, equal_nan=True)

    def test_determinism_byte_identical(self, length_file, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["solve", str(length_file), "--out-dir", str(a)])
        main(["solve", str(length_file), "--out-dir", str(b)])
        assert (a / "solution.csv").read_bytes() == (b / "solution.csv").read_bytes()
        assert (a / "solution.json").read_bytes() == (b / "solution.json").read_bytes()


_SCALES = {
    "uniform": lambda: tv.TimeScale.uniform(0.0, 1.0, 41),
    "integers": lambda: tv.TimeScale.integer_range(0, 8),
    "qgrid": lambda: tv.TimeScale.q_grid(1.5, 0, 9, True),
}


def _solved(kind: str, scale: str):
    ts = _SCALES[scale]()
    if kind == "control":
        p = tv.ControlProblem(ts, tv.parse("u^2 + x^2 + 3*(z - 1)^2"), tv.parse("u - 0.5*x"), 0.0)
        return tv.solve_control(p)
    p = tv.VariationalProblem(ts, tv.parse("sqrt(1 + v^2) + 2*(z - 1)^2 + 0.5*cos(x)"), 0.0)
    return tv.solve_variational(p)


def _written(tmp_path, sol, problem_type, derived, writers):
    csv_writer, json_writer = writers
    csv_writer(tmp_path / "solution.csv", sol, derived)
    json_writer(tmp_path / "solution.json", sol, problem_type, derived)
    return (tmp_path / "solution.csv").read_bytes(), (tmp_path / "solution.json").read_bytes()


class TestSolutionWriters:
    """The column-wise writers write the bytes of the per-cell reference writers."""

    CURRENT = (write_solution_csv, write_solution_json)
    REFERENCE = (reference_solution_csv, reference_solution_json)

    @pytest.mark.parametrize("scale", sorted(_SCALES))
    @pytest.mark.parametrize("kind", ["control", "variational"])
    @pytest.mark.parametrize("explicit", [False, True], ids=["derived=None", "derived"])
    def test_bytes_match_the_reference(self, tmp_path, kind, scale, explicit):
        sol = _solved(kind, scale)
        derived = sol.lam_and_report() if explicit else None
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        ours = _written(tmp_path / "a", sol, kind, derived, self.CURRENT)
        ref = _written(tmp_path / "b", sol, kind, derived, self.REFERENCE)
        assert ours == ref

    def test_non_finite_and_empty_residuals(self, tmp_path):
        sol = _solved("control", "integers")
        ts = sol.x.scale
        lam = tv.GridFunction(ts, np.where(np.arange(ts.n) % 3 == 1, math.nan, -0.25 * ts.points))
        report = tv.ResidualReport(
            scale=ts,
            el_residuals=np.array([math.nan, math.inf, -math.inf, -0.0, 1e-300, 0.1]),
            transversality=-math.inf,
            state_residuals=np.array([]),
            costate_residuals=np.array([math.nan, 1e300]),
            sup_norm=math.nan,
        )
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        ours = _written(tmp_path / "a", sol, "control", (lam, report), self.CURRENT)
        ref = _written(tmp_path / "b", sol, "control", (lam, report), self.REFERENCE)
        assert ours == ref
        text = ours[1].decode()
        assert '"sup_norm": NaN' in text and '"state": []' in text
        assert '"transversality": -Infinity' in text and "    Infinity," in text
        assert "    null," in text
        assert b",inf\r\n" in ours[0] and b",-0\r\n" in ours[0]


class TestVerifyCommand:
    def _write_candidate(self, path, scale, x, u=None, lam=None):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "x", "u", "lambda_sigma", "el_residual"])
            for i, t in enumerate(scale.points):
                writer.writerow([
                    repr(float(t)), repr(float(x[i])),
                    "" if u is None else repr(float(u[i])),
                    "" if lam is None else repr(float(lam[i])),
                    "",
                ])

    def test_round_trip_solve_then_verify(self, control_file, tmp_path, capsys):
        out = tmp_path / "out"
        main(["solve", str(control_file), "--out-dir", str(out)])
        code = main(["verify", str(control_file), str(out / "solution.csv")])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_sampled_parabola_passes_at_mesh_tolerance(self, tracking_file, tmp_path):
        # the sampled continuum trajectory carries a state-equation residual
        # of h/2 = 5e-3, so the acceptance tolerance must sit above that
        pf = load_problem_file(tracking_file)
        ts = pf.scale
        cand = tmp_path / "cand.csv"
        self._write_candidate(
            cand, ts, (ts.points**2 + 1) / 2, np.zeros(ts.n), np.zeros(ts.n)
        )
        assert main(["verify", str(tracking_file), str(cand), "--tolerance", "0.02"]) == 0

    def test_wrong_trajectory_fails_verification(self, tracking_file, tmp_path, capsys):
        pf = load_problem_file(tracking_file)
        ts = pf.scale
        cand = tmp_path / "cand.csv"
        self._write_candidate(cand, ts, ts.points, np.zeros(ts.n), np.zeros(ts.n))
        code = main(["verify", str(tracking_file), str(cand), "--tolerance", "0.02"])
        assert code == 3
        assert "FAIL" in capsys.readouterr().out

    def test_multipliers_recovered_when_column_empty(self, tracking_file, tmp_path):
        pf = load_problem_file(tracking_file)
        ts = pf.scale
        cand = tmp_path / "cand.csv"
        self._write_candidate(cand, ts, (ts.points**2 + 1) / 2, np.zeros(ts.n))
        assert main(["verify", str(tracking_file), str(cand), "--tolerance", "0.02"]) == 0

    def test_blank_multiplier_cell_fails_verification(self, control_file, tmp_path, capsys):
        # a blank cell inside the differentiation domain leaves residuals
        # undefined there; the sup norm must not skip them and pass
        pf = load_problem_file(control_file)
        lam = np.full(4, -5 / 8)
        lam[1] = math.nan
        cand = tmp_path / "cand.csv"
        self._write_candidate(cand, pf.scale, 5 / 16 * pf.scale.points, np.full(4, 5 / 16), lam)
        assert main(["verify", str(control_file), str(cand)]) == 3
        assert "verdict: FAIL (2*u + lam is nan at t = 1.0)" in capsys.readouterr().out

    def test_wrong_point_count_exits_one(self, control_file, tmp_path):
        short = tv.TimeScale.integer_range(0, 2)
        cand = tmp_path / "cand.csv"
        self._write_candidate(cand, short, np.zeros(3), np.zeros(3), np.zeros(3))
        assert main(["verify", str(control_file), str(cand)]) == 1

    def test_non_numeric_cell_exits_one(self, control_file, tmp_path, capsys):
        cand = tmp_path / "cand.csv"
        cand.write_text("t,x\n0,0\n1,abc\n2,0\n3,0\n")
        assert main(["verify", str(control_file), str(cand)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "x cell at row 1: 'abc'" in err

    def test_time_column_mismatch_exits_one(self, control_file, tmp_path):
        shifted = tv.TimeScale.from_points([0, 1, 2, 3.5])
        cand = tmp_path / "cand.csv"
        self._write_candidate(cand, shifted, np.zeros(4), np.zeros(4), np.zeros(4))
        assert main(["verify", str(control_file), str(cand)]) == 1


class TestSweepCommand:
    def test_three_values_increasing(self, length_file, capsys):
        assert main([
            "sweep", str(length_file), "--param", "beta", "--values", "1,2,15",
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "value,slope,endpoint,objective,converged"
        slopes = [float(line.split(",")[1]) for line in lines[1:]]
        assert slopes == sorted(slopes)
        for beta, slope in zip((1.0, 2.0, 15.0), slopes):
            assert abs(slope - minimal_slope_root(beta)) <= 1e-6

    def test_unknown_parameter_exits_one(self, length_file, capsys):
        assert main([
            "sweep", str(length_file), "--param", "gamma", "--values", "1",
        ]) == 1
        assert "gamma" in capsys.readouterr().err

    def test_output_file(self, length_file, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        main(["sweep", str(length_file), "--param", "beta", "--values", "2",
              "--out", str(out)])
        assert out.read_text().startswith("value,slope")

    def test_control_problem_sweep(self, tmp_path, capsys):
        path = tmp_path / "c.toml"
        path.write_text(
            "[timescale]\nkind = integers\na = 0\nb = 3\n"
            "[problem]\ntype = control\nf = u^2 + w*t^2*(z-1)^2\ng = u\nalpha = 0\n"
            "params = w = 1\n"
            "[solver]\ngradient_tolerance = 1e-12\n"
        )
        assert main(["sweep", str(path), "--param", "w", "--values", "1,4"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        slopes = [float(l.split(",")[1]) for l in lines[1:]]
        # heavier end-value weight pulls the end point closer to its target
        assert slopes[1] > slopes[0]

    def test_failed_rows_are_explained_on_stderr(self, tmp_path, capsys):
        # a = 1 makes 1 - mu * g_x = 0, so the implicit state step is singular
        path = tmp_path / "c.toml"
        path.write_text(
            "[timescale]\nkind = integers\na = 0\nb = 3\n"
            "[problem]\ntype = control\nf = u^2\ng = u + a*x\nalpha = 0.5\n"
            "params = a = 0.5\n"
        )
        assert main(["sweep", str(path), "--param", "a", "--values", "0.5,1"]) == 2
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert lines[0] == "value,slope,endpoint,objective,converged"
        assert lines[1].endswith(",true")
        assert lines[2] == "1,,,,false"
        assert captured.err.splitlines() == [
            "row 1: SolveError: implicit state step singular (1 - mu*g_x = 0) at t = 0.0"
        ]

    def test_rows_share_the_parsed_subtrees(self, tmp_path):
        path = tmp_path / "s.toml"
        path.write_text(
            "[timescale]\nkind = integers\na = 0\nb = 8\n"
            "[problem]\ntype = variational\nf = sqrt(1 + v^2) + 2*(z - 1)^2 + w*cos(x)\n"
            "alpha = 0\nparams = w = 0.5\n"
        )
        pf = load_problem_file(path)
        a, b = pf.build_problem({"w": 1.0}).f, pf.build_problem({"w": 2.0}).f
        # walk both trees together: every pair of equal subtrees (those without
        # w) must be one object, and the walk must meet some
        shared, pairs = 0, [(a, b)]
        while pairs:
            m, n = pairs.pop()
            if m == n:
                assert m is n
                shared += 1
            else:
                pairs.extend((getattr(m, k), getattr(n, k))
                             for k in ("arg", "left", "right") if hasattr(m, k))
        assert a != b
        assert shared == 2  # sqrt(1 + v^2) + 2*(z - 1)^2, and cos(x)


class TestIntegrateCommand:
    def test_weighted_square_on_integers(self, control_file, capsys):
        assert main(["integrate", str(control_file), "--expr", "2*t^2"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(10.0)

    def test_zero(self, control_file, capsys):
        main(["integrate", str(control_file), "--expr", "0"])
        assert float(capsys.readouterr().out) == 0.0

    def test_q_grid_with_zero(self, tmp_path, capsys):
        path = tmp_path / "q.toml"
        path.write_text(
            "[timescale]\nkind = qgrid\nq = 2\nk_min = 0\nk_max = 2\n"
            "include_zero = true\n"
            "[problem]\ntype = variational\nf = v^2\nalpha = 0\n"
        )
        main(["integrate", str(path), "--expr", "2*t^2"])
        assert float(capsys.readouterr().out) == pytest.approx(18.0)

    def test_non_time_variable_rejected(self, control_file, capsys):
        assert main(["integrate", str(control_file), "--expr", "x + t"]) == 1


class TestInfoCommand:
    def test_integer_grid_table(self, control_file, capsys):
        assert main(["info", str(control_file)]) == 0
        out = capsys.readouterr().out
        assert "regular: True" in out
        assert out.count("right-scattered") == 3
        assert "maximum" in out

    def test_explicit_scale_graininess(self, tmp_path, capsys):
        path = tmp_path / "e.toml"
        path.write_text(
            "[timescale]\nkind = explicit\npoints = 0, 0.5, 2\n"
            "[problem]\ntype = variational\nf = v^2\nalpha = 0\n"
        )
        main(["info", str(path)])
        out = capsys.readouterr().out
        assert "0.5" in out and "1.5" in out

    def test_qgrid_graininess_column(self, tmp_path, capsys):
        path = tmp_path / "q.toml"
        path.write_text(
            "[timescale]\nkind = qgrid\nq = 2\nk_min = 0\nk_max = 2\n"
            "[problem]\ntype = variational\nf = v^2\nalpha = 0\n"
        )
        main(["info", str(path)])
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        mus = [float(l.split()[3]) for l in lines[1:4]]
        assert mus == [1.0, 2.0, 0.0]

    def test_usage_error_exits_one(self, capsys):
        assert main(["info"]) == 1
