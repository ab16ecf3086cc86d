"""Timed workload process of the pomtrans benchmark.

One fresh single-threaded process per run.  It drives the public CLI entry
point ``pomtrans.cli.main(argv)`` in-process as a closed loop with one
client: the next op starts only after the previous op's files are on disk.
It runs a fixed number of whole passes over the generated op schedule, about
``--seconds`` of ops on the parent commit, each pass in its own seeded op
order, checks every op's artifacts outside the timed region, and writes a
results JSON that ``run.py`` turns into metrics.  The shuffled order spreads
each op's runs over the whole run, so the mean of an op's walls samples the
host's speed at many moments, not at one.

With ``--trace 1`` every op runs twice in a row, untraced then traced, so
the tracing overhead is measured on the same ops; only the traced runs feed
the per-layer figures.

Usage: python3 perfbench/workload.py --dir DIR --seconds 20 --trace 0 --results FILE
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import pomtrans  # noqa: E402
from pomtrans import analysis, cli, dynamics, sfg  # noqa: E402
from pomtrans.errors import PomtransError  # noqa: E402

from checks import Checker  # noqa: E402
from spans import TARGETS, Tracer  # noqa: E402

# A run stops after this much loop time, even inside a pass, so it ends well
# inside the 180 s a run may take.
HARD_LIMIT_S = 120.0


def host_calib():
    """Fixed pure-Python plus numpy reference loop; median of 5, for diagnosis only."""
    def once():
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc + i * i) % 1_000_003
        a = np.linspace(0.0, 1.0, 200_000)
        for _ in range(30):
            a = np.sqrt(a * a + 1.0) - 0.5
        return time.perf_counter() - t0
    return statistics.median(once() for _ in range(5))


def kernel_timings(p):
    """Microseconds per single-frequency call of the three transfer-function routes."""
    op = dynamics.OperatingPoint(p, analysis.critical_photon_number(p))
    graph = dynamics.transducer_graph(op)
    w = p.omega_m
    kernels = {
        "sfg.mason_gain.us_per_call": lambda: sfg.mason_gain(graph, "c_in", "a_out", w),
        "sfg.linear_solve_gain.us_per_call":
            lambda: sfg.linear_solve_gain(graph, "c_in", "a_out", w),
        "dynamics.transduction_amplitude.us_per_call":
            lambda: dynamics.transduction_amplitude(op, w),
    }
    out = {}
    for name, fn in kernels.items():
        batches = []
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(200):
                fn()
            batches.append((time.perf_counter() - t0) / 200 * 1e6)
        out[name] = statistics.median(batches)
    return out


class Loop:
    def __init__(self, schedule, tracer):
        self.ops = schedule["ops"]
        self.seed = schedule["seed"]
        self.tracer = tracer
        self.checker = Checker()
        self.digests = [None] * len(self.ops)
        self.attempted = 0
        self.failures = []
        self.untraced = []  # (op index, wall s) of untraced runs
        self.traced = []  # (op index, wall s, artifact bytes) of traced runs
        self.passes = 0

    def run_op(self, i, op_id, traced):
        op = self.ops[i]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            if traced:
                self.tracer.install(op_id)
            try:
                t0 = time.perf_counter()
                try:
                    rc = cli.main(op["argv"])
                except Exception as exc:  # a traceback is an op failure, not a crash
                    rc = f"raised {exc!r}"
                wall = time.perf_counter() - t0
            finally:
                if traced:
                    self.tracer.uninstall()
        self.attempted += 1
        reason, size = self.verify(i, rc, err.getvalue())
        if reason:
            self.failures.append(f"op {i} ({op['argv'][0]}): {reason}")
        if traced:
            self.traced.append((i, wall, size))
        else:
            self.untraced.append((i, wall))

    def verify(self, i, rc, stderr):
        op = self.ops[i]
        if rc != 0:
            return f"exit {rc}: {stderr.strip()[:200]}", 0
        if "error:" in stderr:
            return f"error line: {stderr.strip()[:200]}", 0
        digest = hashlib.sha256()
        size = 0
        for path in op["artifacts"]:
            try:
                with open(path, "rb") as fh:
                    part = hashlib.file_digest(fh, "sha256")
                size += os.path.getsize(path)
            except OSError as exc:
                return f"missing artifact {path}: {exc}", 0
            digest.update(part.digest())
        digest = digest.hexdigest()
        if self.digests[i] is None:
            self.digests[i] = digest
        elif self.digests[i] != digest:
            return "artifact bytes differ from the op's previous run", 0
        try:
            reason = self.checker.check(op["check"], op["artifacts"])
        except (ValueError, KeyError, IndexError, TypeError, PomtransError) as exc:
            reason = f"output check raised {exc!r}"
        return reason, size

    def run(self, passes, trace):
        """Closed loop over the schedule, ``passes`` whole passes."""
        start = time.monotonic()
        with contextlib.redirect_stdout(io.StringIO()):
            for _ in range(passes):
                order = np.random.default_rng([self.seed, self.passes]).permutation(len(self.ops))
                for k, i in enumerate(order.tolist()):
                    if time.monotonic() - start > HARD_LIMIT_S:
                        self.failures.append(f"pass {self.passes} cut at op {k}: out of time")
                        return
                    op_id = self.passes * len(self.ops) + k
                    self.run_op(i, op_id, traced=False)
                    if trace:
                        self.run_op(i, op_id, traced=True)
                self.passes += 1


def layer_metrics(loop, tracer, items_per_pass):
    passes = max(loop.passes, 1)  # a run cut by the hard limit still reports
    inclusive, self_time = tracer.durations()
    # Figures for every traced name; run.py prints those BENCHMARK.json lists.
    names = {target[2] for target in TARGETS}
    m = {f"{name}.s": inclusive[name] / passes for name in names}
    m.update({f"{name}.calls": tracer.calls[name] / passes for name in names})
    for module in {name.split(".")[0] for name in names}:
        m[f"{module}.self_s"] = sum(
            t for name, t in self_time.items() if name.startswith(module + ".")) / passes
    m["cli.artifact_bytes"] = sum(size for _, _, size in loop.traced) / passes
    m["dynamics.derived_rates.calls_per_item"] = (
        tracer.calls["dynamics.derived_rates"] / passes / items_per_pass)
    m["sweep.to_csv.rows"] = tracer.extra["sweep.to_csv.rows"] / passes
    to_csv_s = inclusive["sweep.to_csv"]
    m["sweep.to_csv.mb_per_s"] = (
        tracer.extra["sweep.to_csv.bytes"] / 1e6 / to_csv_s if to_csv_s else 0.0)
    m["coupling.bytes_computed"] = tracer.extra["coupling.bytes_computed"] / passes
    traced_wall = sum(w for _, w, _ in loop.traced)
    untraced_wall = sum(w for _, w in loop.untraced)
    m["trace.op_wall_s"] = traced_wall / passes
    m["trace.residual_s"] = (traced_wall - sum(self_time.values())) / passes
    m["trace.overhead_ratio"] = traced_wall / untraced_wall - 1
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", required=True, type=Path)
    args = parser.parse_args(argv)

    results_path = args.results.resolve()
    os.chdir(args.dir)
    with open("schedule.json", encoding="utf-8") as fh:
        schedule = json.load(fh)
    calib = host_calib()
    with contextlib.redirect_stdout(io.StringIO()):
        for argv_ in schedule["warmup"]:
            if cli.main(argv_) != 0:
                raise SystemExit(f"warm-up op failed: {argv_}")

    # A fixed number of passes for a given --seconds, whatever the speed of
    # the host or of the commit: about --seconds of ops on the parent commit,
    # at least three untraced passes so every op's mean has three runs, and at
    # least one traced pass, which runs every op twice.
    if args.trace:
        passes = max(1, round(args.seconds / (2 * schedule["pass_seconds"])))
    else:
        passes = max(3, round(args.seconds / schedule["pass_seconds"]))
    tracer = Tracer(pomtrans) if args.trace else None
    loop = Loop(schedule, tracer)
    loop.run(passes, args.trace)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    items = [op["items"] for op in schedule["ops"]]
    combined = hashlib.sha256("".join(d or "-" for d in loop.digests).encode()).hexdigest()
    results = {
        "workload": schedule["workload"],
        "seed": schedule["seed"],
        "trace": args.trace,
        "passes": loop.passes,
        "ops_per_pass": len(items),
        "items_per_pass": sum(items),
        "kinds": dict(Counter(op["argv"][0] for op in schedule["ops"])),
        "items": items,
        "op_walls": [[w for j, w in loop.untraced if j == i] for i in range(len(items))],
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "failures": loop.failures[:20],
        "peak_rss_mb": peak_rss_mb,
        "host_calib_s": calib,
        "digests": loop.digests,
        "digest": combined,
    }
    if args.trace:
        layers = layer_metrics(loop, tracer, sum(items))
        setup = schedule["setup"]
        p = analysis.apply_preset(dynamics.load_params(setup["params"]), setup["preset"])
        layers.update(kernel_timings(p))
        layers["host.calib_s"] = calib
        results["layers"] = layers
        spans_path = results_path.with_name(results_path.stem + ".spans.json")
        tracer.write(spans_path)
        results["spans_file"] = str(spans_path)
    tmp = results_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    os.replace(tmp, results_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
