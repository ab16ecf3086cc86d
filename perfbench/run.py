"""pomtrans benchmark: one workload run, end-to-end or traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload contour --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

A run generates its seeded inputs in one process (``inputs.py``), times the
set-up of fresh interpreters, then runs the closed-loop workload in another
fresh process (``workload.py``).  It prints a readable report and, as the
last line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the ``end_to_end`` metrics of ``BENCHMARK.json`` with
``--trace 0``, its ``per_layer`` metrics with ``--trace 1``.  Files go to
``.perfbench_work/`` under the repository root.  It exits non-zero, printing
no result, when the pomtrans sources are missing or a step fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("spectrum", "contour", "coupling", "cli-small")

# A run must end within 180 s; every child gets what is left of this.
DEADLINE_S = 170.0
SETUP_PROBES = 7

# One single-threaded client: keep BLAS/OpenMP pools at one thread.
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

# Set-up probe: a cold interpreter imports the CLI and resolves one parameter
# set (parameter file plus preset), timed from before the first import.
PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import pomtrans.cli
from pomtrans import analysis, dynamics
analysis.apply_preset(dynamics.load_params({params!r}), {preset!r})
print(repr(time.perf_counter() - t0))
"""


class BenchError(Exception):
    pass


def _child(cmd, deadline, env, cwd=None):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"out of time before {cmd[1]}")
    try:
        proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{cmd[1]} did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"{cmd[1]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def tail_latency(walls):
    """Highest percentile with at least 10 ops above it: (value, percentile, n)."""
    ordered = sorted(walls, reverse=True)
    n = len(ordered)
    if n <= 10:
        return ordered[0], 100.0, n
    return ordered[10], 100.0 * (n - 10) / n, n


def end_to_end(res, setup_s):
    """End-to-end metrics of an untraced run, over every op run of its passes.

    Each op run's latency is its op's mean wall over the run's passes.  The
    passes run the ops in shuffled orders, so the mean averages the host's
    speed over moments spread across the run; a percentile of single walls
    would rest on the one or two moments its ops happened to run at.
    """
    walls = [w for op_walls in res["op_walls"] for w in op_walls]
    items = sum(n * len(op_walls) for n, op_walls in zip(res["items"], res["op_walls"]))
    latencies = [statistics.fmean(op_walls) for op_walls in res["op_walls"]
                 for _ in op_walls]
    tail, pct, n = tail_latency(latencies)
    metrics = {
        "items_per_s": items / sum(walls),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": res["peak_rss_mb"],
        "ok_ratio": 1 - res["failed"] / res["attempted"],
    }
    notes = {
        "items_per_s": f"{res['passes']} passes of {res['items_per_pass']} items",
        "op_p50_s": f"over {n} op runs, each at its op's mean",
        "op_tail_s": f"p{pct:.1f} of {n} op runs, 10 runs above it",
        "setup_s": f"median of {len(setup_s)} cold interpreters, "
                   f"min {min(setup_s):.4f} max {max(setup_s):.4f}",
        "ok_ratio": f"fail_ratio {res['failed']}/{res['attempted']}",
    }
    return metrics, notes


def run_workload(spec, workload, seed, seconds, trace):
    """One run; returns (report lines, result object)."""
    deadline = time.monotonic() + DEADLINE_S
    env = {**os.environ, **THREAD_ENV}
    workdir = WORK / f"{workload}-s{seed}-t{trace}-{os.getpid()}"
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    results_path = results_dir / f"{workload}-seed{seed}-trace{trace}.json"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        py = sys.executable
        _child([py, str(HERE / "inputs.py"), "--workload", workload, "--seed", str(seed),
                "--dir", str(workdir)], deadline, env)
        setup = json.loads((workdir / "schedule.json").read_text("utf-8"))["setup"]
        probe = PROBE.format(src=str(SRC), params=setup["params"], preset=setup["preset"])
        setup_s = [float(_child([py, "-c", probe], deadline, env, cwd=workdir))
                   for _ in range(SETUP_PROBES)]
        _child([py, str(HERE / "workload.py"), "--dir", str(workdir), "--seconds",
                str(seconds), "--trace", str(trace), "--results", str(results_path)],
               deadline, env)
        res = json.loads(results_path.read_text("utf-8"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    kinds = ", ".join(f"{k} {v}" for k, v in sorted(res["kinds"].items()))
    lines = [
        f"workload {workload} seed {seed} trace {trace}: {res['attempted']} op runs, "
        f"{res['passes']} whole pass(es) of {res['ops_per_pass']} ops ({kinds}), "
        f"{res['items_per_pass']} items per pass",
        f"  host.calib_s {res['host_calib_s']:.5f} (diagnosis only)",
        f"  artifact digest {res['digest']}",
        f"  results {results_path.relative_to(ROOT)}",
    ]
    if res["failed"]:
        lines += [f"  FAILED {f}" for f in res["failures"]]
    if trace:
        wanted = spec["per_layer"]
        values = res["layers"]
        accounted = [m["name"] for m in wanted if m["name"].endswith(".self_s")]
        accounted.append("trace.residual_s")
        lines.append("  op wall per pass = " + " + ".join(
            f"{name} {values[name]:.4f}" for name in accounted)
            + f" = {values['trace.op_wall_s']:.4f} s")
    else:
        wanted = spec["end_to_end"]
        values, notes = end_to_end(res, setup_s)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not computed: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for m in wanted:
        note = "" if trace else notes.get(m["name"], "")
        lines.append(f"  {m['name']:<44} {values[m['name']]:>16.6g} {m['unit']:<8} {note}")
    result = {"correct": res["failed"] == 0, "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    return lines, result


def main(argv=None):
    parser = argparse.ArgumentParser(description="pomtrans benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pomtrans" / "cli.py").is_file():
        print(f"error: pomtrans sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload in workloads:
            lines, result = run_workload(spec, workload, args.seed, seconds, args.trace)
            print("\n".join(lines), flush=True)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            prefix = "" if len(workloads) == 1 else workload + "."
            combined["metrics"].update(
                {prefix + name: v for name, v in result["metrics"].items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
