"""One workload run in a fresh process: set up, run timed passes, check outputs.

Started by run.py from the repository root, with tsvar's sources on
PYTHONPATH and BLAS pinned to one thread.  Prints ``READY`` once set-up is
done (the parent times set-up up to that line) and, unless ``--setup-only``,
one JSON line with the raw measurements when it ends.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

from hostspeed import HostSpeed
from summary import median
from tracing import LAYER_METRICS, Instrument, OpLog, Tracer, layer_metrics, op_counts
from workloads import WORKLOADS

OUT_DIR = Path(".bench_out")
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "PYTHONHASHSEED")


def run_passes(workload, ops: OpLog, seconds: float) -> tuple[list[float], list[list], list[float]]:
    """Whole passes until ``seconds`` have gone by, at least one.

    Returns each pass's wall time without the host-speed samples taken inside
    it, its ops, and the factor that scales its times to nominal-host seconds.
    """
    clock = ops.clock
    walls, passes, scales = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        first = len(ops.ops)
        clock.sample()
        spent, t0 = clock.spent, time.perf_counter()
        workload.run_pass(ops)
        t1 = time.perf_counter()
        walls.append(t1 - t0 - (clock.spent - spent))
        clock.sample()
        scales.append(clock.scale(t0, t1))
        passes.append(ops.ops[first:])
        if time.perf_counter() >= deadline:
            return walls, passes, scales


def write_trace(path: Path, tracer: Tracer, counts: dict, meta: dict) -> None:
    t0 = tracer.spans[0].start if tracer.spans else 0.0
    spans = [[s.op, s.name, s.start - t0, s.end - t0, s.parent] for s in tracer.spans]
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**meta, "span_fields": ["op", "name", "start_s", "end_s", "parent"],
                   "spans": spans, "op_counts": counts, "solves": tracer.solves}, fh)
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import tsvar  # noqa: F401  (set-up time includes the import)

    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.setup()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        return measure(workload, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(workload, args) -> int:
    ops = OpLog(HostSpeed())
    hooks = Instrument(ops)
    hooks.install()
    try:
        walls, passes, scales = run_passes(workload, ops, args.seconds / (2 if args.trace else 1))
    finally:
        hooks.uninstall()
    traced_walls, traced_passes, traced_scales, tracer = [], [], [], None
    if args.trace:
        tracer = Tracer()
        inst = Instrument(ops, tracer)
        inst.install()
        try:
            traced_walls, traced_passes, traced_scales = run_passes(workload, ops, args.seconds / 2)
        finally:
            inst.uninstall()

    workload.check(passes + traced_passes)
    all_ops = [op for ps in (passes, traced_passes) for ops_ in ps for op in ops_]
    failures = [f"{op.label}: {op.failure}" for op in all_ops if op.failure]
    result = {
        "attempted": len(all_ops),
        "failed": len(failures),
        "wrong": sum(op.wrong for op in all_ops),
        "failures": failures[:20],
        "pass_walls": walls,
        "pass_scales": scales,
        "pass_latencies": [[op.latency for op in ops_] for ops_ in passes],
        "pass_ok": [sum(not op.failure for op in ops_) for ops_ in passes],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {k: os.environ.get(k) for k in PINNED},
        "digests": workload.digests(),
        "false_certificates": len(workload.false_certificates),
    }
    if tracer is not None:
        npass = len(traced_passes)
        layers = layer_metrics(tracer, npass)
        layers["expr.diff.cache_entries"] = workload.cache_entries["diff"]
        layers["expr.compile.cache_entries"] = workload.cache_entries["compile"]
        traced_ids = {op.id for ops_ in traced_passes for op in ops_}
        layers["conditions.sufficiency.false_certificates"] = (
            len(workload.false_certificates & traced_ids) / npass)
        layers["trace.overhead_ratio"] = (
            median([w * k for w, k in zip(traced_walls, traced_scales)])
            / median([w * k for w, k in zip(walls, scales)]))
        # ops that failed, or got a false certificate on an otherwise correct solve
        flagged = {op.id for op in all_ops if op.failure} | workload.false_certificates
        layers["error_rate"] = len(flagged) / len(all_ops)
        counts = op_counts(tracer)
        # per-op counts of each traced pass, in op order; identical inputs give identical counts
        signatures = [[counts.get(op.id) for op in ops_] for ops_ in traced_passes]
        layers = {k: layers[k] for k in LAYER_METRICS}
        result["layers"] = layers
        result["traced_passes"] = npass
        result["counts_repeat"] = all(s == signatures[0] for s in signatures)
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        write_trace(path, tracer, {op.id: counts.get(op.id) for op in all_ops if op.id in counts},
                    {"workload": args.workload, "seed": args.seed, "env": result["env"],
                     "ops": [[op.id, op.label, op.latency] for op in all_ops],
                     "layers": layers})
        result["trace_file"] = str(path)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
