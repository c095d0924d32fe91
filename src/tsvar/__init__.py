"""Variational and optimal-control problems on time scales with a free
end point whose value may enter the Lagrangian.

The delta calculus lives in :mod:`tsvar.timescale`, expressions in
:mod:`tsvar.expr`, problem classes in :mod:`tsvar.problem`, necessary and
sufficient condition evaluators in :mod:`tsvar.conditions`, solvers in
:mod:`tsvar.solver`, and the command-line front end in :mod:`tsvar.cli`.
"""

from .conditions import (
    ResidualReport,
    SufficiencyVerdict,
    euler_lagrange_residual,
    hamiltonian_residuals,
    sufficiency_check,
    transversality_residual,
    transversality_residual_classical,
    transversality_residual_control_classical,
    transversality_residual_discrete,
    variational_residuals,
)
from .errors import (
    AdmissibilityError,
    DynamicsViolationError,
    EvalError,
    OracleError,
    ParseError,
    ProblemFileError,
    ScaleMismatchError,
    SingularJacobianError,
    SolveError,
    TsvarError,
)
from .expr import Expr, compile_fn, diff, evaluate, parse, substitute, to_text, variables
from .problem import (
    ControlProblem,
    VariationalProblem,
    norm1,
    objective,
    objective_control,
)
from .solver import (
    Solution,
    SolveOptions,
    SweepRow,
    brute_force_oracle,
    residual_report,
    solve_control,
    solve_stationarity,
    solve_variational,
    sweep,
)
from .timescale import GridFunction, TimeScale

__version__ = "0.1.0"

__all__ = [
    "TimeScale", "GridFunction",
    "Expr", "parse", "evaluate", "diff", "to_text", "variables", "substitute", "compile_fn",
    "VariationalProblem", "ControlProblem", "objective", "objective_control", "norm1",
    "ResidualReport", "SufficiencyVerdict",
    "euler_lagrange_residual", "transversality_residual",
    "transversality_residual_classical", "transversality_residual_discrete",
    "variational_residuals", "hamiltonian_residuals",
    "transversality_residual_control_classical",
    "sufficiency_check",
    "SolveOptions", "Solution", "SweepRow",
    "solve_variational", "solve_control", "solve_stationarity",
    "brute_force_oracle", "residual_report", "sweep",
    "TsvarError", "ParseError", "EvalError", "ScaleMismatchError",
    "AdmissibilityError", "DynamicsViolationError", "SolveError",
    "SingularJacobianError", "OracleError", "ProblemFileError",
    "__version__",
]
