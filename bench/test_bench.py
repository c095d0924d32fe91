"""Tests of the benchmark's own logic: tail rule, self time, seeded inputs, wrappers."""

from __future__ import annotations

import random
import statistics

import numpy as np
import pytest

import hostspeed
import summary
import tracing
import workloads
from tracing import Instrument, OpLog, Span, Tracer, op_counts, outermost, self_times


# -- tail percentile ----------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 5, 19, 20, 37, 38, 100, 199, 200, 999, 1000, 20000])
def test_tail_is_highest_ladder_percentile_with_ten_beyond(n):
    p = summary.tail_percentile(n)
    higher = [q for q in summary.TAIL_LADDER if q > p]
    if summary.samples_beyond(n, summary.TAIL_LADDER[0]) >= summary.MIN_BEYOND:
        assert summary.samples_beyond(n, p) >= summary.MIN_BEYOND
    else:
        assert p == summary.TAIL_LADDER[0]  # too few samples: the median stands in
    assert all(summary.samples_beyond(n, q) < summary.MIN_BEYOND for q in higher)


def test_tail_examples():
    values = [float(v) for v in range(1, 101)]
    random.Random(0).shuffle(values)
    assert summary.tail([values]) == (75.0, pytest.approx(75.25))
    assert summary.tail_percentile(1000) == 95.0
    assert [summary.tail_percentile(n) for n in (37, 38, 181, 182)] == [50.0, 75.0, 75.0, 95.0]
    assert summary.samples_beyond(1000, 99.0) == 10


def test_tail_is_the_median_over_chunks_of_passes():
    steady = [float(v) for v in range(1, 201)]  # p95 of one pass: 190.05
    stalled = [v + 1000.0 for v in steady]
    assert summary.tail([steady] * 4 + [stalled]) == (95.0, pytest.approx(190.05))
    # 20-op passes are grouped ten at a time, the last chunk taking the rest:
    # chunks of passes 0-9 (p95 9) and 10-20 (p95 20)
    small = [[float(i)] * 20 for i in range(21)]
    assert summary.tail(small) == (95.0, pytest.approx(14.5))
    # too few samples for two chunks: all latencies pooled
    assert summary.tail([[1.0, 2.0], [3.0]]) == (50.0, 2.0)


# -- self time ------------------------------------------------------------------------


def _span(name, start, end, parent, kernel_s=0.0):
    s = Span(name, start, parent, 0, end)
    s.kernel_s = kernel_s
    return s


def test_self_time_subtracts_union_of_children_and_kernel_time():
    spans = [
        _span("root", 0.0, 10.0, -1, kernel_s=0.5),
        _span("a", 1.0, 3.0, 0),
        _span("b", 2.0, 5.0, 0, kernel_s=1.0),  # overlaps a: [1, 5] is covered once
        _span("c", 9.0, 12.0, 0),  # only [9, 10] lies inside the parent
        _span("d", 2.5, 3.0, 2),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 4.0 - 1.0 - 0.5)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(3.0 - 0.5 - 1.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(0.5)


def test_outermost_counts_nested_members_once():
    spans = [
        _span("x.f", 0.0, 4.0, -1),
        _span("x.g", 1.0, 2.0, 0),  # inside x.f: not outermost
        _span("y.h", 2.0, 3.0, 0),
        _span("x.g", 2.1, 2.2, 2),  # under y.h, but x.f is still an ancestor
        _span("x.g", 5.0, 6.0, -1),
    ]
    assert outermost(spans, lambda name: name.startswith("x.")) == [0, 4]
    assert outermost(spans, lambda name: name == "x.g") == [1, 3, 4]


# -- host speed ------------------------------------------------------------------------


def test_host_speed_scale_takes_the_median_of_the_samples_in_and_next_to_the_interval():
    clock = hostspeed.HostSpeed()
    nominal, k = hostspeed.NOMINAL_S, hostspeed.SENSITIVITY
    clock.samples = [(0.99, nominal), (1.5, 2 * nominal), (2.0, 2 * nominal), (2.5, 4 * nominal)]
    assert clock.scale(1.0, 2.0) == pytest.approx(0.5**k)  # nominal, 2x and 2x
    assert clock.scale(2.53, 2.53) == pytest.approx(0.25**k)
    with pytest.raises(statistics.StatisticsError):
        clock.scale(5.0, 6.0)  # no sample: no speed to scale by


def test_host_speed_samples_fall_between_ops_and_leave_latencies_alone():
    clock = hostspeed.HostSpeed()
    ops = OpLog(clock)
    for label in ("a", "b"):
        ops.begin(label)
    ops.end()
    assert len(clock.samples) == 1  # the second boundary came within INTERVAL_S
    (mid, dur), (a, _) = clock.samples[0], ops.ops
    assert mid + dur / 2 <= a.start and clock.spent == dur


# -- seeded inputs ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_a_pure_function_of_the_seed(name, tmp_path):
    first = workloads.inputs(name, 7)
    random.seed(12345)  # global random state must not leak in
    assert workloads.inputs(name, 7) == first
    assert workloads.inputs(name, 8) != first

    files = []
    for sub in ("a", "b"):
        wl = workloads.WORKLOADS[name](7, tmp_path / sub)
        (tmp_path / sub).mkdir()
        wl.setup()
        files.append({p.name: p.read_bytes() for p in (tmp_path / sub).glob("*.ini")})
    assert files[0] == files[1]


def test_slope_root_solves_the_transversality_equation():
    for beta in (1.0, 2.5, 4.0):
        a = workloads.slope_root(beta)
        assert a / np.sqrt(1 + a * a) + 2 * beta * (a - 1) == pytest.approx(0.0, abs=1e-14)


# -- wrappers --------------------------------------------------------------------------------


def _traced_cli_solve(tmp_path):
    ini = tmp_path / "p.ini"
    ini.write_text(
        "[timescale]\nkind = integers\na = 0\nb = 3\n\n"
        "[problem]\ntype = control\nf = u^2 + t^2*(z - 1)^2\ng = u\nalpha = 0\n",
        encoding="utf-8",
    )
    ops, tracer = OpLog(), Tracer()
    inst = Instrument(ops, tracer)
    inst.install()
    try:
        ops.begin("solve")
        rc, _, _ = workloads.run_cli(["solve", str(ini), "--out-dir", str(tmp_path)])
        ops.end()
    finally:
        inst.uninstall()
    assert rc == 0
    return tracer, ops


def test_wrappers_reach_names_imported_by_other_modules_and_are_removed(tmp_path):
    import tsvar.cli
    import tsvar.expr
    import tsvar.solver

    original = tsvar.solver.solve_control
    compile_fn = tsvar.expr.compile_fn
    tracer, ops = _traced_cli_solve(tmp_path)
    names = [s.name for s in tracer.spans]
    solve = names.index("solver.solve_control")
    assert tracer.spans[tracer.spans[solve].parent].name == "cli.main"
    assert "cli.write_solution_csv" in names and tracer.write_bytes > 0
    assert ops.ops[0].solution is not None and ops.ops[0].solution.converged
    assert tracer.solves[0]["accepted"] == tracer.solves[0]["iterations"]
    assert tsvar.cli.solve_control is original and tsvar.solver.solve_control is original
    assert tsvar.expr.compile_fn is compile_fn


def test_traced_counts_repeat_exactly(tmp_path):
    first = op_counts(_traced_cli_solve(tmp_path)[0])
    second = op_counts(_traced_cli_solve(tmp_path)[0])
    assert first == second and first[0]["kernel.calls"] > 0


def test_layer_metrics_cover_the_declared_names():
    layers = tracing.layer_metrics(Tracer(), 1)
    added_by_worker = {"expr.diff.cache_entries", "expr.compile.cache_entries",
                       "conditions.sufficiency.false_certificates",
                       "trace.overhead_ratio", "error_rate"}
    assert set(tracing.LAYER_METRICS) <= set(layers) | added_by_worker


def test_install_leaves_cached_properties_alone(tmp_path, monkeypatch):
    import tsvar

    monkeypatch.setitem(tracing.SPANNED, "timescale",
                        (*tracing.SPANNED["timescale"], "GridFunction.delta_values"))
    inst = Instrument(OpLog(), Tracer())
    inst.install()
    try:
        gf = tsvar.GridFunction.from_values(tsvar.TimeScale.integer_range(0, 3), [0.0, 1.0, 4.0, 9.0])
        assert list(gf.delta_values) == [1.0, 3.0, 5.0]
    finally:
        inst.uninstall()


# -- output checks ---------------------------------------------------------------------------


def test_sweep_small_counts_a_sufficient_verdict_as_a_false_certificate(tmp_path):
    from types import SimpleNamespace

    wl = workloads.SweepSmall(1, tmp_path)
    values = wl.inputs["values"][:2]
    assert not any(wl.known_convex(v) for v in values)
    ops = [tracing.Op(i, f"row {v!r}", 0.0, 1.0) for i, v in enumerate(values)]
    for op, status in zip(ops, ("sufficient", "inconclusive")):
        op.solution = SimpleNamespace(verdict=SimpleNamespace(sufficient=status == "sufficient"))
    wl.check_rows([ops])
    assert wl.false_certificates == {0}
    assert not ops[0].failure and not ops[0].wrong
    assert not ops[1].failure
