"""The public surface: every export resolves, and README's quick start runs."""

import importlib
import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest

import tsvar as tv

PACKAGE = Path(tv.__file__).parent
MODULES = ["tsvar", *(f"tsvar.{path.stem}" for path in sorted(PACKAGE.glob("*.py"))
                      if not path.stem.startswith("__"))]


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    # a stale export, such as a deleted function left in ``__all__``, fails here
    module = importlib.import_module(name)
    entries = getattr(module, "__all__", [])
    missing = [entry for entry in entries if not hasattr(module, entry)]
    assert not missing, f"{name}.__all__ names what it does not define: {missing}"
    assert len(set(entries)) == len(entries), name


def test_a_stale_entry_is_caught(monkeypatch):
    monkeypatch.setattr(tv.solver, "__all__", [*tv.solver.__all__, "deleted_function"])
    with pytest.raises(AssertionError, match=r"\['deleted_function'\]"):
        test_every_all_entry_resolves("tsvar.solver")


def test_the_report_is_the_one_source_of_the_multipliers():
    # a solution and the kernel's columns carry no multipliers; the report does
    assert not hasattr(tv.Solution, "lam")
    assert "lam" not in inspect.signature(tv.problem.terms).parameters


def test_readme_quick_start_runs_and_its_comments_hold():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.M | re.S)
    ns = {}
    exec(compile(block, "README.md", "exec"), ns)  # noqa: S102 - the repository's own README
    sol, report = ns["sol"], ns["report"]
    t = sol.x.scale.points
    assert np.max(np.abs(sol.x.values - 5 / 16 * t)) <= 1e-12
    assert np.max(np.abs(sol.x.values - [0, 0.3125, 0.625, 0.9375])) <= 1e-12
    assert np.max(np.abs(report.lam.values[:-1] + 5 / 8)) <= 1e-12
    assert math.isnan(report.lam.values[-1])
    assert report.sup_norm <= 1e-12
    assert sol.verdict.status == "sufficient"
