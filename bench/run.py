"""tsvar benchmark: one workload run, end-to-end or per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload var_mesh --seed 1 --seconds 20 --trace 0

Workloads: var_mesh, ctl_mesh, ctl_qgrid, sweep_small (see BENCHMARK.json).
One client drives the program in a closed loop: each op starts when the
previous one has finished.  Times are scaled to a nominal host speed, from a
fixed reference loop timed around every pass (bench/hostspeed.py); the
unscaled values are printed too.  The workload runs in a fresh child process
(bench/worker.py) with tsvar's sources from ``src`` and BLAS pinned to one
thread; set-up is timed over several more fresh processes.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
traced run, and writes its spans to ``.bench_out/``.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import SENSITIVITY, HostSpeed
from summary import median, tail
from tracing import LAYER_METRICS

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 10  # extra set-up-only processes; with the measured one, 11 samples
DEADLINE_S = 170.0  # the whole run, probes included

E2E_UNITS = {
    "wall_s": "s", "op_s.p50": "s", "op_s.tail": "s", "solves_per_s": "1/s",
    "setup_s": "s", "peak_rss_mb": "MB", "success_rate": "ratio",
}


def worker_cmd(args, *extra: str) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), *extra]


def spawn_until_ready(cmd, env, deadline: float):
    """Start a worker; return it with the seconds until it printed READY."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        finish(proc, deadline)
        raise RuntimeError(f"worker did not get ready (exit {proc.returncode})")
    return proc, ready


def finish(proc, deadline: float) -> str:
    """Read the rest of a worker's output and wait for it, killing it at the deadline."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker ran past the deadline") from None
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "tsvar" / "__init__.py").is_file():
        print(f"error: no tsvar sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    deadline = time.perf_counter() + DEADLINE_S

    clock = HostSpeed()
    try:
        setups, raw_setups = [], []
        for _ in range(SETUP_PROBES):
            clock.sample()
            t0 = time.perf_counter()
            proc, ready = spawn_until_ready(worker_cmd(args, "--setup-only"), env, deadline)
            finish(proc, deadline)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up process exited {proc.returncode}")
            clock.sample()
            raw_setups.append(ready)
            setups.append(ready * clock.scale(t0, time.perf_counter()))
        cmd = worker_cmd(args, "--seconds", str(args.seconds), "--trace", str(args.trace))
        clock.sample()  # and none after: by then the worker is measuring
        t0 = time.perf_counter()
        proc, ready = spawn_until_ready(cmd, env, deadline)
        raw_setups.append(ready)
        setups.append(ready * clock.scale(t0, t0))
        out = finish(proc, deadline)
        if proc.returncode != 0:
            raise RuntimeError(f"workload process exited {proc.returncode}")
        res = json.loads(out.strip().splitlines()[-1])
    except (RuntimeError, OSError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    scales, walls = res["pass_scales"], res["pass_walls"]
    raw_lat = [x for lats in res["pass_latencies"] for x in lats]
    pass_lat = [[x * k for x in lats] for lats, k in zip(res["pass_latencies"], scales)]
    lat = [x for lats in pass_lat for x in lats]
    norm_walls = [w * k for w, k in zip(walls, scales)]
    tail_p, tail_v = tail(pass_lat)
    print(f"workload {args.workload}  seed {args.seed}  passes {len(res['pass_walls'])}  "
          f"ops {res['attempted']}  failed {res['failed']}  wrong outputs {res['wrong']}")
    print("pinned: " + "  ".join(f"{k}={v}" for k, v in res["env"].items()))
    print(f"op_s.tail is p{tail_p:g} of {len(lat)} op latencies")
    print(f"host speed: the reference loop ran at {median(scales) ** (1 / SENSITIVITY):.3f}x "
          f"its nominal speed (median over passes); unscaled wall_s {median(walls):.6g} s, op_s.p50 "
          f"{median(raw_lat):.6g} s, op_s.tail {tail(res['pass_latencies'])[1]:.6g} s, setup_s "
          f"{median(raw_setups):.6g} s")
    for line in res["digests"]:
        print(f"sha256 of {line}")
    for line in res["failures"]:
        print(f"failed op: {line}")
    if res["false_certificates"]:
        print(f"finding: {res['false_certificates']} of {res['attempted']} rows got a "
              f"'sufficient' verdict on a problem known to be non-convex")
    if args.trace:
        print(f"traced passes {res['traced_passes']}  counts repeat across them: "
              f"{res['counts_repeat']}  spans written to {res['trace_file']}")
        values = res["layers"]
        units = LAYER_METRICS
    else:
        values = {
            "wall_s": median(norm_walls),
            "op_s.p50": median(lat),
            "op_s.tail": tail_v,
            # per pass, then the median: one slow pass does not move it
            "solves_per_s": median([ok / w for ok, w in zip(res["pass_ok"], norm_walls)]),
            "setup_s": median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
            "success_rate": 1.0 - res["failed"] / res["attempted"],
        }
        units = E2E_UNITS
    for k, v in values.items():
        print(f"{k:42s} {v:14.6g} {units[k]}")
    print(json.dumps({
        "correct": res["wrong"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
