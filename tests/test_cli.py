"""Command-line behaviour: file loading, commands, exit codes, determinism."""

import csv
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tsvar as tv
from tsvar.cli import load_problem_file, main, write_solution_csv, write_solution_json
from helpers import (
    minimal_slope_root, reference_read_candidate, reference_residual_table,
    reference_solution_csv, reference_solution_json,
)

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

    def test_duplicate_parameter_rejected(self, tmp_path):
        # the second binding used to win silently
        path = tmp_path / "bad.toml"
        path.write_text(PENALIZED_LENGTH.replace("beta = 1", "beta = 1.0, beta = 5.0"))
        with pytest.raises(tv.ProblemFileError, match=r"line 11: duplicate parameter 'beta'"):
            load_problem_file(path)

    def test_parameter_name_must_be_an_identifier(self, tmp_path):
        # no expression can name '2q', so sweeping it would repeat one row
        path = tmp_path / "bad.toml"
        path.write_text(PENALIZED_LENGTH.replace("beta = 1", "beta = 1, 2q = 3"))
        with pytest.raises(tv.ProblemFileError, match=r"line 11: parameter name '2q' is not"):
            load_problem_file(path)
        assert main(["sweep", str(path), "--param", "2q", "--values", "1,2"]) == 1

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

    def test_step_tolerance_is_an_unexpected_key(self, tmp_path):
        # the line search's step floor is a constant of the solver now
        path = tmp_path / "old.toml"
        path.write_text(PENALIZED_LENGTH + "step_tolerance = 1e-12\n")
        with pytest.raises(tv.ProblemFileError,
                           match=r"line 15: unexpected key 'step_tolerance' in \[solver\]"):
            load_problem_file(path)

    def test_seed_is_an_unexpected_key(self, tmp_path, capsys):
        # the sampled screen runs at its own fixed seed; no option sets it
        path = tmp_path / "old.toml"
        path.write_text(PENALIZED_LENGTH + "seed = 0\n")
        with pytest.raises(tv.ProblemFileError,
                           match=r"line 15: unexpected key 'seed' in \[solver\]"):
            load_problem_file(path)
        assert main(["solve", str(path), "--out-dir", str(tmp_path)]) == 1
        assert "unexpected key 'seed'" in capsys.readouterr().err

    def test_nan_gradient_tolerance_is_a_load_error(self, tmp_path, capsys):
        # it used to stop every solve after 0 iterations, unconverged (exit 2)
        path = tmp_path / "nan.toml"
        path.write_text(PENALIZED_LENGTH + "gradient_tolerance = nan\n")
        with pytest.raises(tv.ProblemFileError, match="gradient_tolerance must be positive"):
            load_problem_file(path)
        assert main(["solve", str(path), "--out-dir", str(tmp_path)]) == 1
        assert "gradient_tolerance must be positive" in capsys.readouterr().err

    def test_problem_file_that_is_not_utf8_exits_one(self, tmp_path, capsys):
        path = tmp_path / "latin1.toml"
        path.write_bytes(PENALIZED_LENGTH.encode() + "# r\xe9sum\xe9\n".encode("latin-1"))
        with pytest.raises(tv.ProblemFileError, match="cannot read .*latin1.toml"):
            load_problem_file(path)
        assert main(["solve", str(path), "--out-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: cannot read ")

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


_SCALE = "kind = uniform\na = 0\nb = 1\nn = 100\n"  # lines 2-5 of PENALIZED_LENGTH
_EXPR = "f = sqrt(1 + v^2) + beta*(z-1)^2"  # line 9 of PENALIZED_LENGTH


def _edited(*edits):
    text = PENALIZED_LENGTH
    for old, new in edits:
        assert text.count(old) == 1, old
        text = text.replace(old, new)
    return text


def _scale(block):
    """PENALIZED_LENGTH with its [timescale] keys replaced by ``block``."""
    return _edited((_SCALE, block))


# Every message the loader writes, with its line number.
LOADER_MESSAGES = {
    # sections
    "malformed header": (_edited(("[solver]", "[solver")),
                         "line 13: malformed section header '[solver'"),
    "unknown section": (_edited(("[solver]", "[options]")), "line 13: unknown section [options]"),
    "duplicate section": (_edited(("[solver]", "[problem]")),
                          "line 13: duplicate section [problem]"),
    "key outside a section": (_edited(("[timescale]", "# no header")),
                              "line 2: key outside any section"),
    "no equals sign": (_edited(("n = 100", "n 100")), "line 5: expected 'key = value'"),
    "no [timescale]": (_edited(("[timescale]\n" + _SCALE, "")),
                       "missing required section [timescale]"),
    "no [problem]": (PENALIZED_LENGTH.split("[problem]")[0], "missing required section [problem]"),
    # missing, unexpected and duplicate keys
    "missing kind": (_edited(("kind = uniform\n", "")), "section [timescale] is missing key 'kind'"),
    "missing scale key": (_edited(("n = 100\n", "")), "section [timescale] is missing key 'n'"),
    "missing key before unreadable": (_edited(("a = 0\nb = 1\n", "a = zero\n")),
                                      "section [timescale] is missing key 'b'"),
    "missing type": (_edited(("type = variational\n", "")),
                     "section [problem] is missing key 'type'"),
    "missing f": (_edited((_EXPR + "\n", "")), "section [problem] is missing key 'f'"),
    "missing g": (_edited(("type = variational", "type = control")),
                  "section [problem] is missing key 'g'"),
    "missing alpha": (_edited(("alpha = 0\n", "")), "section [problem] is missing key 'alpha'"),
    "unexpected scale key": (_edited(("n = 100\n", "n = 100\nc = 1\n")),
                             "line 6: unexpected key 'c' in [timescale]"),
    "key of another kind": (_scale("kind = integers\na = 0\nb = 3\nn = 100\n"),
                            "line 5: unexpected key 'n' in [timescale]"),
    "unexpected problem key": (_edited(("alpha = 0\n", "alpha = 0\ng = u\n")),
                               "line 11: unexpected key 'g' in [problem]"),
    "unexpected solver key": (PENALIZED_LENGTH + "seed = 0\n",
                              "line 15: unexpected key 'seed' in [solver]"),
    "duplicate key": (_edited(("b = 1\n", "b = 1\nb = 2\n")), "line 5: duplicate key 'b'"),
    # converters
    "float": (_edited(("\na = 0", "\na = zero")), "line 3: a is not a number: 'zero'"),
    "integer": (_edited(("n = 100", "n = 1e2")), "line 5: n is not an integer: '1e2'"),
    "integer bound": (_scale("kind = integers\na = 0.5\nb = 3\n\n"),
                      "line 3: a is not an integer: '0.5'"),
    "q": (_scale("kind = qgrid\nq = two\nk_min = 0\nk_max = 2\n"),
          "line 3: q is not a number: 'two'"),
    "boolean": (_scale("kind = qgrid\nq = 2\nk_min = 0\nk_max = 2\ninclude_zero = maybe\n"),
                "line 6: include_zero is not a boolean: 'maybe'"),
    "alpha": (_edited(("alpha = 0", "alpha = zero")), "line 10: alpha is not a number: 'zero'"),
    "parameter": (_edited(("beta = 1", "beta = one")), "line 11: beta is not a number: 'one'"),
    "solver integer": (_edited(("= 2000", "= lots")),
                       "line 14: max_iterations is not an integer: 'lots'"),
    "solver float": (PENALIZED_LENGTH + "gradient_tolerance = tiny\n",
                     "line 15: gradient_tolerance is not a number: 'tiny'"),
    "bad point list": (_scale("kind = explicit\npoints = 0, x, 1\n\n\n"),
                       "line 3: bad point list"),
    "unknown kind": (_edited(("kind = uniform", "kind = grid")),
                     "line 2: unknown timescale kind 'grid' "
                     "(expected explicit|integers|uniform|qgrid)"),
    # params
    "params entry": (_edited(("params = beta = 1", "params = beta")),
                     "line 11: params entries look like name=value"),
    "params identifier": (_edited(("beta = 1", "beta = 1, 2q = 3")),
                          "line 11: parameter name '2q' is not an identifier"),
    "params reserved": (_edited(("beta = 1", "beta = 1, exp = 1")),
                        "line 11: parameter name 'exp' collides with a reserved "
                        "variable or function"),
    "params duplicate": (_edited(("beta = 1", "beta = 1, beta = 2")),
                         "line 11: duplicate parameter 'beta'"),
    # problem type
    "problem type": (_edited(("type = variational", "type = optimal")),
                     "line 8: problem type must be variational or control"),
    # parse and validation errors, wrapped
    "parse": (_edited((_EXPR, "f = sqrt(1 + v^2) +")), "unexpected end of input (at position 15)"),
    "unknown identifier": (_edited(("params = beta = 1\n", "")),
                           "unknown identifier 'beta' (missing parameter substitution?) "
                           "(at position 16)"),
    "integrand variables": (_edited((_EXPR, "f = u^2")),
                            "integrand may only use t, x, v, z; found ['u']"),
    "running cost variables": (_edited(("type = variational", "type = control"),
                                       ("alpha = 0", "g = u\nalpha = 0")),
                               "running cost may only use t, x, u, z; found ['v']"),
    "dynamics variables": (_edited(("type = variational", "type = control"),
                                   (_EXPR, "f = u^2 + beta*(z-1)^2"),
                                   ("alpha = 0", "g = v\nalpha = 0")),
                           "dynamics may only use t, x, u, z; found ['v']"),
    "three points": (_scale("kind = integers\na = 0\nb = 1\n\n"),
                     "variational problems need at least three scale points"),
    "max_iterations": (_edited(("= 2000", "= 0")), "max_iterations must be at least 1"),
    "gradient_tolerance": (PENALIZED_LENGTH + "gradient_tolerance = nan\n",
                           "gradient_tolerance must be positive"),
    # scale constructors, at the kind line
    "uniform a >= b": (_edited(("a = 0\nb = 1", "a = 1\nb = 0")),
                       "line 2: uniform sampling needs a < b"),
    "uniform n < 2": (_edited(("n = 100", "n = 1")),
                      "line 2: uniform sampling needs at least two points"),
    "qgrid q <= 1": (_scale("kind = qgrid\nq = 0.5\nk_min = 0\nk_max = 2\n"),
                     "line 2: q-grid needs q > 1"),
    "qgrid k_max < k_min": (_scale("kind = qgrid\nq = 2\nk_min = 2\nk_max = 0\n"),
                            "line 2: q-grid needs k_min <= k_max"),
    "qgrid one point": (_scale("kind = qgrid\nq = 2\nk_min = 1\nk_max = 1\n"),
                        "line 2: q-grid needs at least two points"),
    "explicit one point": (_scale("kind = explicit\npoints = 1\n\n\n"),
                           "line 2: a time scale needs at least two points"),
    "integers b <= a": (_scale("kind = integers\na = 3\nb = 3\n\n"),
                        "line 2: integer grid needs a < b"),
    # non-finite alpha and parameters
    "alpha nan": (_edited(("alpha = 0", "alpha = nan")),
                  "line 10: alpha is not a finite number: 'nan'"),
    "alpha inf": (_edited(("alpha = 0", "alpha = inf")),
                  "line 10: alpha is not a finite number: 'inf'"),
    "parameter nan": (_edited(("beta = 1", "beta = nan")),
                      "line 11: beta is not a finite number: 'nan'"),
    "parameter inf": (_edited(("beta = 1", "beta = -inf")),
                      "line 11: beta is not a finite number: '-inf'"),
}


class TestLoaderMessages:
    @pytest.mark.parametrize("case", LOADER_MESSAGES)
    def test_message(self, tmp_path, case):
        text, message = LOADER_MESSAGES[case]
        path = tmp_path / "bad.ini"
        path.write_text(text)
        with pytest.raises(tv.ProblemFileError) as info:
            load_problem_file(path)
        assert str(info.value) == message

    @pytest.mark.parametrize("argv", [
        ["solve", "FILE", "--out-dir", "OUT"], ["verify", "FILE", "OUT/solution.csv"],
        ["sweep", "FILE", "--param", "beta", "--values", "1,2"],
        ["integrate", "FILE", "--expr", "t"], ["info", "FILE"],
    ], ids=lambda argv: argv[0])
    def test_bad_scale_is_an_error_line_in_every_command(self, tmp_path, capsys, argv):
        path = tmp_path / "bad.ini"
        path.write_text(LOADER_MESSAGES["uniform a >= b"][0])
        argv = [a.replace("FILE", str(path)).replace("OUT", str(tmp_path)) for a in argv]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 2: uniform sampling needs a < b\n"

    @pytest.mark.parametrize("case", ["alpha inf", "parameter nan"])
    def test_non_finite_value_stops_the_solve_before_it_starts(self, tmp_path, capsys, case):
        # both used to load and fail in the solve, "objective undefined at
        # the starting point", inf after a numpy RuntimeWarning
        text, message = LOADER_MESSAGES[case]
        path = tmp_path / "bad.ini"
        path.write_text(text)
        assert main(["solve", str(path), "--out-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "solution.csv").exists()


class TestModuleEntryPoints:
    """``python -m tsvar`` and ``python -m tsvar.cli`` run the ``tsvar`` command."""

    @staticmethod
    def _run(module, *args):
        src = str(Path(tv.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        return subprocess.run([sys.executable, "-m", module, *args], capture_output=True,
                              text=True, env=env, timeout=120)

    @pytest.mark.parametrize("module", ["tsvar", "tsvar.cli"])
    def test_solves_a_file(self, length_file, tmp_path, module):
        out = tmp_path / "out"
        proc = self._run(module, "solve", str(length_file), "--out-dir", str(out))
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.startswith("objective ")
        assert (out / "solution.csv").exists() and (out / "solution.json").exists()

    @pytest.mark.parametrize("module", ["tsvar", "tsvar.cli"])
    def test_bad_file_is_one_error_line(self, tmp_path, module):
        path = tmp_path / "bad.ini"
        path.write_text(LOADER_MESSAGES["uniform a >= b"][0])
        proc = self._run(module, "info", str(path))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr


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

    def test_readme_example_file_solves_and_verifies(self, tmp_path):
        # README's problem file as it stands: a comment that reached a value
        # would make it a load error
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        (block,) = re.findall(r"^```ini\n(.*?)^```$", readme, flags=re.M | re.S)
        path = tmp_path / "readme.ini"
        path.write_text(block, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["solve", str(path), "--out-dir", str(out)]) == 0
        assert main(["verify", str(path), str(out / "solution.csv")]) == 0

    def test_readme_lists_each_kinds_keys_in_the_loaders_order(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        rows = dict(re.findall(r"^\| `(\w+)` \| (.*) \|$", readme, flags=re.M))
        assert {kind: re.findall(r"`(\w+)`", rows[kind]) for kind in rows} == {
            kind: [key for key, *_ in keys] for kind, (_, keys) in tv.cli._SCALE_KINDS.items()}

    def test_parse_failure_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.toml"
        path.write_text("[oops]\n")
        assert main(["solve", str(path)]) == 1
        assert "oops" in capsys.readouterr().err

    def test_out_dir_that_cannot_be_created_exits_one(self, control_file, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["solve", str(control_file), "--out-dir", str(blocker / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "file" in err

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


def _written(tmp_path, sol, derived, problem_type=None):
    """The bytes the current writers write; with ``problem_type``, those of the
    reference writers, which are told the problem type."""
    if problem_type is None:
        write_solution_csv(tmp_path / "solution.csv", sol, derived)
        write_solution_json(tmp_path / "solution.json", sol, derived)
    else:
        reference_solution_csv(tmp_path / "solution.csv", sol, derived)
        reference_solution_json(tmp_path / "solution.json", sol, problem_type, derived)
    return (tmp_path / "solution.csv").read_bytes(), (tmp_path / "solution.json").read_bytes()


class TestSolutionWriters:
    """The column-wise writers write the bytes of the per-cell reference writers."""

    @pytest.mark.parametrize("scale", sorted(_SCALES))
    @pytest.mark.parametrize("kind", ["control", "variational"])
    @pytest.mark.parametrize("explicit", [False, True], ids=["derived=None", "derived"])
    def test_bytes_match_the_reference(self, tmp_path, kind, scale, explicit):
        sol = _solved(kind, scale)
        derived = sol.lam_and_report() if explicit else None
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        ours = _written(tmp_path / "a", sol, derived)
        ref = _written(tmp_path / "b", sol, derived, kind)
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
        ours = _written(tmp_path / "a", sol, (lam, report))
        ref = _written(tmp_path / "b", sol, (lam, report), "control")
        assert ours == ref
        text = ours[1].decode()
        assert '"sup_norm": NaN' in text and '"state": []' in text
        assert '"transversality": -Infinity' in text and "    Infinity," in text
        assert "    null," in text
        assert b",inf\r\n" in ours[0] and b",-0\r\n" in ours[0]


    def test_negative_nan_cells_are_empty(self, tmp_path):
        sol = _solved("control", "integers")
        ts = sol.x.scale
        lam = tv.GridFunction(ts, np.full(ts.n, np.copysign(math.nan, -1.0)))
        report = sol.lam_and_report()[1]
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        ours = _written(tmp_path / "a", sol, (lam, report))
        ref = _written(tmp_path / "b", sol, (lam, report), "control")
        assert ours[0] == ref[0]
        assert b"nan" not in ours[0].lower()
        assert ours[0].splitlines()[1].endswith(b",,")


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

    @pytest.mark.parametrize("multipliers", ["written", "recovered"])
    @pytest.mark.parametrize("problem", ["control", "tracking", "length"])
    def test_report_is_the_solutions_report(self, request, tmp_path, monkeypatch, problem,
                                            multipliers):
        # verify reports on the path of Solution.lam_and_report, with the
        # multipliers from the candidate's column or recovered without it
        path = request.getfixturevalue(f"{problem}_file")
        assert main(["solve", str(path), "--out-dir", str(tmp_path)]) in (0, 2)
        with open(tmp_path / "solution.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        if multipliers == "recovered":
            rows = [row[:3] + row[4:] for row in rows]
        cand = tmp_path / "cand.csv"
        cand.write_text("\n".join(map(",".join, rows)) + "\n")
        reports = []

        def recorded(*args):
            reports.append(tv.residual_report(*args)[1])
            return None, reports[-1]

        monkeypatch.setattr(tv.cli, "residual_report", recorded)
        assert main(["verify", str(path), str(cand)]) in (0, 3)
        pf = load_problem_file(path)
        solve = tv.solve_control if pf.problem_type == "control" else tv.solve_variational
        want = solve(pf.build_problem(), pf.options).lam_and_report()[1]
        (got,) = reports
        for name in ("sup_norm", "transversality"):
            assert np.float64(getattr(got, name)).tobytes() == \
                np.float64(getattr(want, name)).tobytes(), name
        for (name, a), (_, b) in zip(got._families(), want._families()):
            assert (a is None) == (b is None), name
            assert a is None or a.tobytes() == b.tobytes(), name

    def test_nan_state_residuals_fail_verification(self, control_file, tmp_path, capsys):
        # a blank state cell at t = 2 makes the state residuals at t = 1 and 2
        # NaN, and so the sup norm: no tolerance may pass it
        out = tmp_path / "out"
        assert main(["solve", str(control_file), "--out-dir", str(out)]) == 0
        with open(out / "solution.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        rows[3][1] = ""
        cand = tmp_path / "cand.csv"
        cand.write_text("\n".join(map(",".join, rows)) + "\n")
        capsys.readouterr()
        assert main(["verify", str(control_file), str(cand)]) == 3
        text = capsys.readouterr().out
        assert "               2               nan" in text
        assert f"{'sup norm':>16s}  {'nan':>16s}" in text
        assert text.endswith("verdict: FAIL (sup nan vs tolerance 1e-06)\n")

    def test_missing_candidate_exits_one(self, control_file, tmp_path, capsys):
        assert main(["verify", str(control_file), str(tmp_path / "missing.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "missing.csv" in err

    def test_candidate_that_is_not_utf8_exits_one(self, control_file, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes("t,x\n0,0\n1,0\n2,0\n3,\xe9\n".encode("latin-1"))
        assert main(["verify", str(control_file), str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: 'utf-8' codec can't decode")

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

    def test_minimizer_passes_where_an_unused_second_partial_is_infinite(self, tmp_path, capsys):
        # f_xx = 0.75/sqrt(x) is infinite at x = 0, but the costate and the
        # report read first partials only, and x = u = 0 is the minimizer
        path = tmp_path / "pow.toml"
        path.write_text(
            "[timescale]\nkind = integers\na = 0\nb = 4\n\n"
            "[problem]\ntype = control\nf = u^2 + x^1.5\ng = u\nalpha = 0\n"
        )
        scale = tv.TimeScale.integer_range(0, 4)
        cand = tmp_path / "cand.csv"
        self._write_candidate(cand, scale, np.zeros(5), np.zeros(5))
        assert main(["verify", str(path), str(cand)]) == 0
        assert "verdict: PASS (sup 0.000000e+00" in capsys.readouterr().out

    def test_blank_time_cell_exits_one(self, control_file, tmp_path, capsys):
        # a blank cell parses as NaN, which no tolerance test may let through
        out = tmp_path / "out"
        assert main(["solve", str(control_file), "--out-dir", str(out)]) == 0
        lines = (out / "solution.csv").read_text().splitlines()
        lines[2] = lines[2][lines[2].index(","):]
        cand = tmp_path / "cand.csv"
        cand.write_text("\n".join(lines) + "\n")
        assert main(["verify", str(control_file), str(cand)]) == 1
        assert "time column mismatches the scale at row 1: nan vs 1.0" in capsys.readouterr().err

    def test_short_row_reads_its_missing_cells_as_blank(self, control_file, tmp_path, capsys):
        # the row for t = 1 has no multiplier cell: a blank one, so the
        # residuals there are undefined and the candidate fails
        cand = tmp_path / "cand.csv"
        cand.write_text("t,x,u,lambda_sigma\n0,0,0,0\n1,0,0\n2,0,0,0\n3,0,0,0\n")
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

    @pytest.mark.parametrize("text, message", [
        ("t,x\n0,\n1,\n2,\n3,\n", "has empty t or x columns"),
        ("t,x\n,0\n,abc\n,0\n,0\n", "has empty t or x columns"),
        ("t,x\n0,0\n9,abc\n2,0\n3,0\n", "non-numeric x cell at row 1: 'abc'"),
        ("t,x,u\n0,0,0\n9,0,0\n2,0,0\n3,0,0\n", "time column mismatches the scale at row 1"),
    ])
    def test_candidate_columns_are_checked_in_order(self, control_file, tmp_path, capsys,
                                                     text, message):
        # t first, then x (only when t has values), then the time match
        cand = tmp_path / "cand.csv"
        cand.write_text(text)
        assert main(["verify", str(control_file), str(cand)]) == 1
        assert message in capsys.readouterr().err

    def test_time_column_mismatch_exits_one(self, control_file, tmp_path):
        shifted = tv.TimeScale.from_points([0, 1, 2, 3.5])
        cand = tmp_path / "cand.csv"
        self._write_candidate(cand, shifted, np.zeros(4), np.zeros(4), np.zeros(4))
        assert main(["verify", str(control_file), str(cand)]) == 1


def _drop_column(j):
    return lambda rows: [row[:j] + row[j + 1:] for row in rows]


def _set_cell(i, j, text):
    def edit(rows):
        rows[i][j] = text
        return rows
    return edit


class TestVerifyMatchesThePerCellReference:
    """``tsvar verify`` prints, and exits with, what it did when it read and
    printed one cell at a time (``helpers.reference_read_candidate`` and
    ``helpers.reference_residual_table``)."""

    EDITS = {
        "as solved": lambda rows: rows,
        "blank multiplier cell": _set_cell(2, 3, ""),
        "blank time cell": _set_cell(2, 0, " "),
        "blank state cell": _set_cell(3, 1, ""),
        "non-numeric state cell": _set_cell(3, 1, "abc"),
        "non-numeric control cell": _set_cell(2, 2, "1.0.0"),
        "padded cells and blank lines": lambda rows: (
            rows[:1] + [[f" {c} " for c in row] for row in rows[1:3]] + [[]] + rows[3:] + [[]]),
        "no multiplier column": _drop_column(3),
        "no control column": _drop_column(2),
        "repeated state column": lambda rows: [row + (["x"] if k == 0 else ["0"])
                                               for k, row in enumerate(rows)],
        "short rows": lambda rows: [rows[0]] + [row[:4] for row in rows[1:]],
        "one row too many": lambda rows: rows + [rows[-1]],
    }

    @staticmethod
    def _verify(argv, capsys, monkeypatch, reference):
        with monkeypatch.context() as m:
            if reference:
                m.setattr(tv.cli, "_read_candidate", reference_read_candidate)
                m.setattr(tv.ResidualReport, "to_table", reference_residual_table)
            code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize("edit", sorted(EDITS))
    @pytest.mark.parametrize("problem", ["control", "tracking", "length"])
    def test_stdout_stderr_and_exit_code(self, request, tmp_path, capsys, monkeypatch,
                                         problem, edit):
        path = request.getfixturevalue(f"{problem}_file")
        assert main(["solve", str(path), "--out-dir", str(tmp_path)]) in (0, 2)
        capsys.readouterr()
        with open(tmp_path / "solution.csv", newline="") as fh:
            rows = [row for row in csv.reader(fh)]
        cand = tmp_path / "cand.csv"
        cand.write_text("\r\n".join(map(",".join, self.EDITS[edit](rows))) + "\r\n")
        argv = ["verify", str(path), str(cand), "--tolerance", "1e-3"]
        ours = self._verify(argv, capsys, monkeypatch, reference=False)
        ref = self._verify(argv, capsys, monkeypatch, reference=True)
        assert ours == ref
        assert ours[0] in (0, 1, 3)

    def test_table_with_non_finite_and_short_families(self):
        ts = tv.TimeScale.integer_range(0, 8)
        report = tv.ResidualReport(
            scale=ts,
            el_residuals=np.array([math.nan, math.inf, -math.inf, -0.0, 1e-300, 0.1]),
            transversality=-math.inf,
            state_residuals=np.array([]),
            costate_residuals=np.array([np.copysign(math.nan, -1.0), 1e300]),
            stationarity_residuals=np.arange(8.0) - 3.5,
            sup_norm=math.nan,
        )
        assert report.to_table() == reference_residual_table(report)
        assert report.to_table().count("\n") == ts.n + 2


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

    @pytest.mark.parametrize("values", ["nan", "1,inf", "2,-inf"])
    def test_non_finite_values_exit_one(self, length_file, values, capsys):
        # no parameter value that is not finite can solve, and a NaN row
        # would print an empty value cell
        assert main(["sweep", str(length_file), "--param", "beta", "--values", values]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: values must be finite; got {values!r}\n"

    @pytest.mark.filterwarnings("error")
    def test_a_list_that_starts_negative_takes_the_equals_form(self, tmp_path, capsys):
        # argparse reads -1,2 after a space as an option, and the error says
        # what to write instead; beta = -1 runs off, beta = 2 converges, and
        # neither prints a warning
        path = tmp_path / "length.ini"
        path.write_text(PENALIZED_LENGTH.replace("n = 100", "n = 10"))
        assert main(["sweep", str(path), "--param", "beta", "--values", "-1,2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: argument --values: expected one argument; write "
                                "--values=-1,2 for a list that starts with a negative value\n")
        assert main(["sweep", str(path), "--param", "beta", "--values=-1,2"]) == 2
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["-1", "2"]
        assert [line.rsplit(",", 1)[1] for line in lines[1:]] == ["false", "true"]
        assert captured.err == "row -1: gradient tolerance not reached\n"

    def test_output_file(self, length_file, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        main(["sweep", str(length_file), "--param", "beta", "--values", "2",
              "--out", str(out)])
        assert out.read_text().startswith("value,slope")

    def test_output_file_in_a_missing_directory_exits_one(self, length_file, tmp_path, capsys):
        out = tmp_path / "missing" / "rows.csv"
        assert main(["sweep", str(length_file), "--param", "beta", "--values", "2",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "rows.csv" in err

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

    def test_unconverged_rows_are_explained_on_stderr(self, tmp_path, capsys):
        # w = -0.1 makes the cost unbounded below: five iterations do not converge
        path = tmp_path / "c.toml"
        path.write_text(
            "[timescale]\nkind = uniform\na = 0\nb = 1\nn = 40\n"
            "[problem]\ntype = control\nf = w*u^2 + x^2 + 3*(z-1)^2\ng = u - 0.5*x\n"
            "alpha = 0\nparams = w = 1\n"
            "[solver]\nmax_iterations = 5\n"
        )
        assert main(["sweep", str(path), "--param", "w", "--values", "1,-0.1,1"]) == 2
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert [line.rsplit(",", 1)[1] for line in lines[1:]] == ["true", "false", "true"]
        assert captured.err.splitlines() == [
            "row -0.10000000000000001: gradient tolerance not reached"
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
