"""Command-line front end: solve / verify / sweep / integrate / info.

Problem files are UTF-8 text with ``[section]`` headers and ``key = value``
lines.  Exactly one ``[timescale]`` and one ``[problem]`` section are
required; ``[solver]`` is optional.  ``_SCALE_KINDS`` gives each scale
kind's keys; the ``[solver]`` keys are the fields of ``SolveOptions``.
Parameters named in ``params`` are bound names: each expression is parsed
once with them as variables, and a problem is built by substituting each
parameter's value as a constant, so a sweep's problems share every subtree
that does not contain the swept parameter.  Parameter names must not collide
with the reserved variables or function names.

Exit codes: 0 success, 1 usage or file errors (a refused scale or a
non-finite ``alpha`` or parameter among them), 2 solver non-convergence,
3 verification failure.  ``python -m tsvar`` is the same command.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import re
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import expr as ex
from .conditions import ResidualReport
from .errors import ProblemFileError, TsvarError
from .problem import ControlProblem, VariationalProblem, integrate_terms, pointwise
from .solver import (
    SolveOptions, Solution, residual_report, solve_control, solve_variational, sweep,
)
from .timescale import GridFunction, TimeScale

__all__ = ["ProblemFile", "load_problem_file", "main", "console_main"]

_SECTIONS = ("timescale", "problem", "solver")
_RESERVED = set(ex.VARIABLES) | set(ex.FUNCTIONS)
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")  # the expression tokenizer's names
_FMT = "%.17g"


def _fmt(v: float) -> str:
    return "" if math.isnan(v) else _FMT % v


# -- problem files ---------------------------------------------------------


@dataclass
class ProblemFile:
    """Parsed problem file.  ``f`` and ``g`` are parsed once, with the
    parameter names as variables; each built problem binds their values."""

    scale: TimeScale
    problem_type: str  # "variational" | "control"
    f: ex.Expr
    g: ex.Expr | None
    alpha: float
    params: dict[str, float]
    options: SolveOptions

    def build_problem(self, overrides: dict[str, float] | None = None):
        values = {**self.params, **(overrides or {})}

        def bind(e: ex.Expr) -> ex.Expr:
            for name in self.params:
                e = ex.substitute(e, name, ex.Const(values[name]))
            return e

        if self.problem_type == "control":
            return ControlProblem(self.scale, bind(self.f), bind(self.g), self.alpha)
        return VariationalProblem(self.scale, bind(self.f), self.alpha)


def _parse_sections(path: Path) -> dict[str, dict[str, tuple[str, int]]]:
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    section: dict[str, tuple[str, int]] | None = None
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ProblemFileError(f"line {lineno}: malformed section header {line!r}")
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ProblemFileError(f"line {lineno}: unknown section [{name}]")
            if name in sections:
                raise ProblemFileError(f"line {lineno}: duplicate section [{name}]")
            section = sections[name] = {}
            continue
        if section is None:
            raise ProblemFileError(f"line {lineno}: key outside any section")
        if "=" not in line:
            raise ProblemFileError(f"line {lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in section:
            raise ProblemFileError(f"line {lineno}: duplicate key {key!r}")
        section[key] = (value.strip(), lineno)
    return sections


def _take(section: dict, key: str, where: str, default: str | None = None):
    """``(text, line)`` of ``key``, which is required unless it has a default."""
    if key in section:
        return section.pop(key)
    if default is None:
        raise ProblemFileError(f"section [{where}] is missing key {key!r}")
    return default, 0


def _no_leftovers(section: dict, where: str) -> None:
    for key, (_, lineno) in section.items():  # names the first
        raise ProblemFileError(f"line {lineno}: unexpected key {key!r} in [{where}]")


_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _boolean(text: str) -> bool:
    return _BOOLEANS[text.lower()]


def _points(text: str) -> list[float]:
    return [float(p) for p in text.split(",")]


# each reader of a value's text, and the error for a text it cannot read
_UNREADABLE = {
    float: "{key} is not a number: {text!r}",
    int: "{key} is not an integer: {text!r}",
    _boolean: "{key} is not a boolean: {text!r}",
    _points: "bad point list",
}


def _convert(key: str, read, text: str, lineno: int, finite: bool = False):
    """``read(text)``; a text that it cannot read, or with ``finite`` a value
    that is not finite, is an error naming the line."""
    try:
        value = read(text)
    except (ValueError, KeyError):
        error = _UNREADABLE[read].format(key=key, text=text)
        raise ProblemFileError(f"line {lineno}: {error}") from None
    if finite and not math.isfinite(value):
        raise ProblemFileError(f"line {lineno}: {key} is not a finite number: {text!r}")
    return value


# each scale kind: its constructor, and its keys in argument order, each with
# its reader and, for an optional key, the text of its default
_SCALE_KINDS = {
    "explicit": (TimeScale.from_points, [("points", _points)]),
    "integers": (TimeScale.integer_range, [("a", int), ("b", int)]),
    "uniform": (TimeScale.uniform, [("a", float), ("b", float), ("n", int)]),
    "qgrid": (TimeScale.q_grid, [("q", float), ("k_min", int), ("k_max", int),
                                 ("include_zero", _boolean, "false")]),
}


def _build_scale(section: dict[str, tuple[str, int]]) -> TimeScale:
    kind, kind_line = _take(section, "kind", "timescale")
    if kind not in _SCALE_KINDS:
        raise ProblemFileError(f"line {kind_line}: unknown timescale kind {kind!r} "
                               f"(expected {'|'.join(_SCALE_KINDS)})")
    build, keys = _SCALE_KINDS[kind]
    # every key is taken before any is read, so that a missing key is named first
    taken = [(key, read, *_take(section, key, "timescale", *default))
             for key, read, *default in keys]
    args = [_convert(*entry) for entry in taken]
    _no_leftovers(section, "timescale")
    try:
        return build(*args)
    except ValueError as exc:
        raise ProblemFileError(f"line {kind_line}: {exc}") from None


def _parse_params(text: str, lineno: int) -> dict[str, float]:
    params: dict[str, float] = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ProblemFileError(f"line {lineno}: params entries look like name=value")
        name, value = item.split("=", 1)
        name = name.strip()
        if not _NAME.fullmatch(name):
            raise ProblemFileError(f"line {lineno}: parameter name {name!r} is not an identifier")
        if name in _RESERVED:
            raise ProblemFileError(
                f"line {lineno}: parameter name {name!r} collides with a reserved "
                "variable or function"
            )
        if name in params:
            raise ProblemFileError(f"line {lineno}: duplicate parameter {name!r}")
        params[name] = _convert(name, float, value.strip(), lineno, finite=True)
    return params


def load_problem_file(path: str | Path) -> ProblemFile:
    path = Path(path)
    try:
        sections = _parse_sections(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise ProblemFileError(f"cannot read {path}: {exc}") from exc
    for required in ("timescale", "problem"):
        if required not in sections:
            raise ProblemFileError(f"missing required section [{required}]")

    scale = _build_scale(sections["timescale"])

    prob = sections["problem"]
    ptype, ptype_line = _take(prob, "type", "problem")
    if ptype not in ("variational", "control"):
        raise ProblemFileError(f"line {ptype_line}: problem type must be variational or control")
    f_text = _take(prob, "f", "problem")[0]
    g_text = _take(prob, "g", "problem")[0] if ptype == "control" else None
    alpha = _convert("alpha", float, *_take(prob, "alpha", "problem"), finite=True)
    params = _parse_params(*_take(prob, "params", "problem", ""))
    _no_leftovers(prob, "problem")

    solver = sections.get("solver", {})
    options = {f.name: _convert(f.name, type(f.default), *solver.pop(f.name))
               for f in fields(SolveOptions) if f.name in solver}
    _no_leftovers(solver, "solver")

    try:
        pf = ProblemFile(scale, ptype, ex.parse(f_text, params),
                         None if g_text is None else ex.parse(g_text, params),
                         alpha, params, SolveOptions(**options))
        pf.build_problem()  # validate the problem's variables and shape
    except (TsvarError, ValueError) as exc:
        raise ProblemFileError(str(exc)) from exc
    return pf


# -- output writers -----------------------------------------------------------
#
# Both files are written a column at a time, with a fixed byte format.
# ``solution.json`` is ``json.dumps(solution_to_dict(...), indent=2)`` plus a
# newline: floats in their shortest repr, NaN grid samples as ``null``,
# non-finite residuals as ``NaN``/``Infinity``.  ``solution.csv`` has CRLF
# line ends, every number as ``%.17g`` and an empty cell where a column has
# no value (a NaN sample, a missing family, a residual past the family's end).


_CSV_ROW = ",".join([_FMT] * 5) + "\r\n"


def write_solution_csv(path: Path, sol: Solution, report: ResidualReport | None = None) -> None:
    """Write the solution table; ``report`` defaults to ``sol.report``."""
    report = report or sol.report
    lam = report.lam
    n = sol.x.scale.n
    table = np.full((n, 5), math.nan)  # a NaN cell is written empty
    columns = (sol.x.scale.points, sol.x.values, None if sol.u is None else sol.u.values,
               None if lam is None else lam.values, report.el_residuals)
    for j, values in enumerate(columns):
        if values is not None:
            values = np.asarray(values, dtype=float)[:n]
            table[:len(values), j] = values
    # ``%.17g`` spells no number but NaN (of either sign) with the letters "nan"
    body = (_CSV_ROW * n % tuple(table.ravel().tolist())).replace("nan", "")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("t,x,u,lambda_sigma,el_residual\r\n" + body)


def _grid_list(g: GridFunction | None):
    if g is None:
        return None
    out = g.values.tolist()
    for i in np.flatnonzero(np.isnan(g.values)).tolist():
        out[i] = None
    return out


def solution_to_dict(sol: Solution, report: ResidualReport | None = None) -> dict:
    """``solution.json`` content; ``report`` defaults to ``sol.report``."""
    report = report or sol.report
    return {
        "problem_type": "control" if isinstance(sol.problem, ControlProblem) else "variational",
        "converged": sol.converged,
        "iterations": sol.iterations,
        "objective": sol.objective_value,
        "sufficiency": {
            "status": sol.verdict.status,
            "reason": sol.verdict.reason,
        },
        "grids": {
            "t": sol.x.scale.points.tolist(),
            "x": sol.x.values.tolist(),
            "u": _grid_list(sol.u),
            "lambda_sigma": _grid_list(report.lam),
        },
        "residuals": report.to_dict(),
        "message": sol.message,
    }


def _json_chunks(obj, pad: str = "\n"):
    """The text of ``json.dumps(obj, indent=2)`` in pieces, one per list.

    Each list is encoded by one C-encoder call.  Lists hold only numbers and
    ``None``, whose tokens never contain ``", "``, so every ``", "`` of the
    compact encoding is an item separator.
    """
    inner = pad + "  "
    if isinstance(obj, dict) and obj:
        sep = "{"
        for key, value in obj.items():
            yield f"{sep}{inner}{json.dumps(key)}: "
            yield from _json_chunks(value, inner)
            sep = ","
        yield pad + "}"
    elif isinstance(obj, list) and obj:
        yield "[" + inner + json.dumps(obj)[1:-1].replace(", ", "," + inner) + pad + "]"
    else:
        yield json.dumps(obj)


def write_solution_json(path: Path, sol: Solution, report: ResidualReport | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_json_chunks(solution_to_dict(sol, report)))
        fh.write("\n")


# -- commands ------------------------------------------------------------------


def cmd_solve(args) -> int:
    pf = load_problem_file(args.file)
    problem = pf.build_problem()
    solve = solve_control if pf.problem_type == "control" else solve_variational
    sol = solve(problem, pf.options)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = sol.report  # computed on each read, so read once
    write_solution_csv(out_dir / "solution.csv", sol, report)
    write_solution_json(out_dir / "solution.json", sol, report)
    print(f"objective      {sol.objective_value:.12g}")
    print(f"residual sup   {report.sup_norm:.6e}")
    if sol.verdict.sufficient:
        print("sufficiency    sufficient (extremal is a global minimizer)")
    else:
        print(f"sufficiency    inconclusive ({sol.verdict.reason})")
    print(f"converged      {sol.converged} after {sol.iterations} iterations")
    return 0 if sol.converged else 2


_NAN_IF_BLANK = {"": "nan"}  # ``.get(v, v)``: a blank cell reads as NaN


def _read_candidate(path: Path, scale: TimeScale):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or "t" not in header or "x" not in header:
            raise ProblemFileError(f"candidate {path} needs at least columns t and x")
        rows = [row for row in reader if row]  # blank lines are no rows
    if len(rows) != scale.n:
        raise ProblemFileError(
            f"candidate has {len(rows)} rows but the scale has {scale.n} points"
        )
    index = {name: j for j, name in enumerate(header)}  # a repeated name reads its last column
    cells = list(itertools.zip_longest(*rows, fillvalue=""))  # a short row's missing cells are blank

    def column(name):
        j = index.get(name)
        if j is None:
            return None
        vals = list(map(str.strip, cells[j])) if j < len(cells) else []
        if not any(vals):
            return None
        try:
            return np.fromiter(map(float, map(_NAN_IF_BLANK.get, vals, vals)), float, len(vals))
        except ValueError:  # find the cell
            for i, v in enumerate(vals):
                try:
                    float(v or "nan")
                except ValueError:
                    raise ProblemFileError(
                        f"candidate {path} has a non-numeric {name} cell at row {i}: {v!r}"
                    ) from None
            raise

    t = column("t")
    x = None if t is None else column("x")
    if x is None:
        raise ProblemFileError(f"candidate {path} has empty t or x columns")
    pts = scale.points
    # negated, so that a blank cell (NaN) is a mismatch too
    bad = np.flatnonzero(~(np.abs(t - pts) <= 1e-9 * np.maximum(1.0, np.abs(pts))))
    if bad.size:
        i = int(bad[0])
        raise ProblemFileError(
            f"candidate time column mismatches the scale at row {i}: "
            f"{float(t[i])!r} vs {float(pts[i])!r}"
        )
    return x, column("u"), column("lambda_sigma")


def cmd_verify(args) -> int:
    pf = load_problem_file(args.file)
    problem = pf.build_problem()
    xv, uv, lv = _read_candidate(Path(args.candidate), pf.scale)
    if pf.problem_type == "control" and uv is None:
        raise ProblemFileError("control problems need a u column in the candidate")
    # without a lambda_sigma column the candidate gets its canonical multipliers
    grids = [None if v is None else GridFunction(pf.scale, v) for v in (xv, uv, lv)]
    try:
        report = residual_report(problem, *grids)
    except ValueError as exc:  # inadmissible, or a residual is undefined (say, a blank cell)
        print(f"verdict: FAIL ({exc})")
        return 3
    print(report.to_table())
    ok = report.sup_norm < args.tolerance
    print(f"verdict: {'PASS' if ok else 'FAIL'} "
          f"(sup {report.sup_norm:.6e} vs tolerance {args.tolerance:g})")
    return 0 if ok else 3


def cmd_sweep(args) -> int:
    pf = load_problem_file(args.file)
    if args.param not in pf.params:
        raise ProblemFileError(
            f"unknown parameter {args.param!r}; file declares {sorted(pf.params)}"
        )
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        raise ProblemFileError(f"bad values list {args.values!r}") from None
    if not all(map(math.isfinite, values)):
        raise ProblemFileError(f"values must be finite; got {args.values!r}")
    rows = sweep(
        lambda v: pf.build_problem({args.param: v}), values, pf.options
    )
    lines = ["value,slope,endpoint,objective,converged"]
    for row in rows:
        lines.append(
            f"{_fmt(row.value)},{_fmt(row.slope)},{_fmt(row.endpoint)},"
            f"{_fmt(row.objective)},{str(row.converged).lower()}"
        )
    text = "\n".join(lines)
    print(text)
    for row in rows:
        if row.message:
            print(f"row {_fmt(row.value)}: {row.message}", file=sys.stderr)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    return 0 if all(r.converged for r in rows) else 2


def cmd_integrate(args) -> int:
    pf = load_problem_file(args.file)
    e = ex.parse(args.expr)
    extra = ex.variables(e) - {"t"}
    if extra:
        raise ProblemFileError(
            f"integrand may only use the variable t; found {sorted(extra)}"
        )
    try:
        (values,) = pointwise(e)((pf.scale.points[:-1],))
    except ValueError as exc:  # not finite at some point of the scale
        raise ProblemFileError(str(exc)) from None
    print(_FMT % integrate_terms(pf.scale, values))
    return 0


def cmd_info(args) -> int:
    pf = load_problem_file(args.file)
    ts = pf.scale
    print(f"{'t':>16s} {'sigma':>16s} {'rho':>16s} {'mu':>16s}  class")
    inner = "right-dense sample" if ts.dense else "right-scattered"
    for i in range(ts.n):
        kind = "maximum" if i == ts.n - 1 else inner
        print(
            f"{ts.points[i]:16.8g} {ts.points[ts.sigma(i)]:16.8g} "
            f"{ts.points[ts.rho(i)]:16.8g} {ts.mu(i):16.8g}  {kind}"
        )
    print(f"points: {ts.n}   regular: {ts.is_regular()}")
    return 0


# -- entry point ----------------------------------------------------------------


# argparse takes a token such as -1,2 for an option, not for the value of --values
_NEGATIVE_VALUES = "write --values=-1,2 for a list that starts with a negative value"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors map to exit code 1, not argparse's 2
        if message.startswith("argument --values:"):
            message = f"{message}; {_NEGATIVE_VALUES}"
        raise ProblemFileError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tsvar", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve the problem in FILE")
    p_solve.add_argument("file")
    p_solve.add_argument("--out-dir", default=".", help="directory for solution.csv/json")
    p_solve.set_defaults(fn=cmd_solve)

    p_verify = sub.add_parser("verify", help="evaluate residuals of a candidate CSV")
    p_verify.add_argument("file")
    p_verify.add_argument("candidate")
    p_verify.add_argument("--tolerance", type=float, default=1e-6)
    p_verify.set_defaults(fn=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="re-solve for each parameter value")
    p_sweep.add_argument("file")
    p_sweep.add_argument("--param", required=True)
    p_sweep.add_argument("--values", required=True,
                         help=f"comma-separated list; {_NEGATIVE_VALUES}")
    p_sweep.add_argument("--out", default=None, help="also write the CSV table here")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_int = sub.add_parser("integrate", help="delta integral of an expression in t")
    p_int.add_argument("file")
    p_int.add_argument("--expr", required=True)
    p_int.set_defaults(fn=cmd_integrate)

    p_info = sub.add_parser("info", help="print the scale's operator table")
    p_info.add_argument("file")
    p_info.set_defaults(fn=cmd_info)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (TsvarError, OSError, UnicodeDecodeError) as exc:  # usage and file errors
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
