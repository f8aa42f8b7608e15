"""Closed-loop benchmark of the `eocd` package: one client, one job in flight.

Run from the repository root:

    python3 bench/run.py --workload search-ladder --seed 1 --seconds 30 --trace 0

The package is imported from `src/` next to this directory.  Set-up
(import plus building the workload's jobs from the seed) is repeated and
timed; then whole passes over the fixed job list run until the time is
spent.  Each job runs under a per-job limit enforced with SIGALRM, and
its output is checked outside the timed window.  A job fails if it
raises (RecursionError included), exceeds its limit or fails its check;
a failed job is charged the limit.  The end-to-end times are normalized
for the shared machine's drifting speed by a reference kernel sampled
between jobs (bench/speed.py); the real times are in the report line.

With `--trace 0` the last line of standard output is the result with the
end-to-end metrics; with `--trace 1`, untraced and traced passes
alternate and the result carries the per-layer metrics, while the spans
are written to `bench/out/`.  The line before the result is a report
with quartiles, sample counts and failures.  See bench/DESIGN.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import signal
import statistics
import sys
from array import array
from collections import namedtuple
from time import perf_counter

import jobs as workloads
from layers import CHECK, GLUE, JOB, LAYERS, PASS, Calls, Tracer
from speed import Speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUPS = 9
MIN_PASSES = 2

SEARCH_CASES = ("path-1500", "path-2000", "path-4000", "cycle-1200", "sierpinski-4-5",
                "sierpinski-6-4", "6c12-empty-dp", "6c12-empty-pd", "comb-10-3-gamma",
                "comb-10-2-gamma-t", "tree-2k", "tree-3k")
EXPONENTS = ("trees.grow", "trees.dp", "trees.decompose", "trees.replay",
             "recognizer.recognize", "solver.check", "graph.parse")


# One job in one pass.  `charged` is the real time, or the limit if the job
# failed; the `norm_` fields are the same rescaled by the machine's speed
# (bench/speed.py), and a failed job's `norm_charged` is the limit too.
Row = namedtuple("Row", "charged real error norm_charged norm_real")


class JobTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so that package code cannot swallow it."""


def _alarm(signum, frame):
    raise JobTimeout


def import_eocd():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "eocd", "__init__.py")):
        raise SystemExit(f"error: no eocd package under {src}; run from a repository checkout")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules if m == "eocd" or m.startswith("eocd.")]:
        del sys.modules[name]
    eocd = importlib.import_module("eocd")
    if not os.path.abspath(eocd.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: imported eocd from {eocd.__file__}, not from {src}")
    return eocd


def set_up(workload, seed, speed):
    """Import and job building, repeated.

    Returns (the real set-up times, the normalized ones, eocd, jobs).
    """
    real, normalized = [], []
    for _ in range(SETUPS):
        gc.collect()  # the previous set-up's garbage is not this one's cost
        before = speed.sample()
        t0 = perf_counter()
        eocd = import_eocd()
        jobs = workloads.build(workload, seed)
        real.append(perf_counter() - t0)
        speed.sample()
        normalized.append(real[-1] * speed.scale(before))
    return real, normalized, eocd, jobs


def run_pass(jobs, calls, limit, speed, tracer=None):
    """One pass over the job list; returns a `Row` per job."""
    signal.signal(signal.SIGALRM, _alarm)
    clock = perf_counter
    out_rows, marks = [], []
    if tracer is not None:
        pass_sid, pass_start = tracer.new_id(), clock()
    # A CLI run's heap holds only its own objects: keep the benchmark's
    # inputs, answers and rows out of the collections the jobs trigger.
    gc.collect()
    gc.freeze()
    mark = speed.sample()
    for job in jobs:
        if speed.due():
            mark = speed.sample()
        marks.append(mark)
        if tracer is not None:
            sid = tracer.new_id()
            tracer.job = (sid, job.jid)
        error = None
        t0 = clock()
        try:
            signal.setitimer(signal.ITIMER_REAL, limit)
            try:
                out = job.run(calls)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except JobTimeout:
            error = "timeout"
        except Exception as exc:  # every program error is one failed job
            error = type(exc).__name__
        t1 = clock()
        if tracer is not None:
            tracer.record(JOB, job.jid, pass_sid, t0, t1, sid)
        if error is None:
            try:
                ok = job.check(out)
            except Exception as exc:  # a malformed record fails its check
                ok = False
                error = f"wrong: check raised {type(exc).__name__}: {exc}"
            if not ok:
                error = error or "wrong result"
            if tracer is not None:
                tracer.record(CHECK, job.jid, sid, t1, clock())
        out = None
        real = t1 - t0
        out_rows.append((real, error))
    speed.sample()
    if tracer is not None:
        tracer.record(PASS, None, None, pass_start, clock(), pass_sid)
    rows = []
    for (real, error), mark in zip(out_rows, marks):
        norm = real * speed.scale(mark)
        rows.append(Row(limit if error else real, real, error, limit if error else norm, norm))
    return rows


class Tally:
    """What the result needs from a run's passes of one kind (traced or not).

    Kept compact, so that the benchmark's own memory stays small and does
    not grow with the number of passes that fit in the run.
    """

    def __init__(self, jobs):
        self.jobs = jobs
        self.batch, self.norm_batch = [], []
        self.pooled, self.norm_pooled = array("d"), array("d")
        self.case_times = {}  # search-ladder case -> normalized real times
        self.failed = []      # (case, kind, error)

    def add(self, rows):
        self.batch.append(sum(row.charged for row in rows))
        self.norm_batch.append(sum(row.norm_charged for row in rows))
        self.pooled.extend(row.charged for row in rows)
        self.norm_pooled.extend(row.norm_charged for row in rows)
        for job, row in zip(self.jobs, rows):
            if row.error:
                self.failed.append((job.case, job.kind, row.error))
            if job.case in SEARCH_CASES:
                self.case_times.setdefault(job.case, []).append(row.norm_real)


def quartiles(values):
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(math.ceil(q * len(ordered))) - 1)]


def layer_metrics(tracer, jobs, case_times, workload):
    """Per-layer busy seconds and calls per pass, glue, check, cases and exponents."""
    by_jid = {job.jid: job for job in jobs}
    parent_of = {sid: parent for sid, parent, *_ in tracer.spans}
    per_pass = {}
    sizes = {}  # layer -> {job id: seconds in this job}, summed over passes
    for sid, parent, name, jid, t0, t1 in tracer.spans:
        if name == PASS:
            continue
        top = parent
        while parent_of[top] is not None:
            top = parent_of[top]
        acc = per_pass.setdefault(top, {
            "busy": dict.fromkeys(LAYERS, 0.0), "calls": dict.fromkeys(LAYERS, 0),
            "job": 0.0, "check": 0.0})
        if name == JOB:
            acc["job"] += t1 - t0
        elif name == CHECK:
            acc["check"] += t1 - t0
        else:
            acc["busy"][name] += t1 - t0
            acc["calls"][name] += 1
            sizes.setdefault(name, {}).setdefault(jid, 0.0)
            sizes[name][jid] += t1 - t0
    for sid, _, name, _, t0, t1 in tracer.spans:
        if name == PASS:
            per_pass[sid]["wall"] = t1 - t0
    per_pass = list(per_pass.values())
    med = statistics.median
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.s"] = (med(p["busy"][layer] for p in per_pass), "s")
        metrics[f"{layer}.calls"] = (med(p["calls"][layer] for p in per_pass), "count")
    glue = [p["job"] - sum(p["busy"].values()) for p in per_pass]
    metrics[f"{GLUE}.s"] = (med(glue), "s")
    metrics["trace.batch_s"] = (med(p["job"] for p in per_pass), "s")
    metrics[f"{CHECK}.s"] = (med(p["check"] for p in per_pass), "s")
    metrics["trace.unaccounted_s"] = (
        med(p["wall"] - p["job"] - p["check"] for p in per_pass), "s")
    for case in SEARCH_CASES:
        times = case_times.get(case)
        metrics[f"case.{case}.s"] = (med(times) if workload == "search-ladder" else 0.0, "s")
    for layer in EXPONENTS:
        points = [(by_jid[jid].size, t) for jid, t in sizes.get(layer, {}).items() if t > 0]
        value = fit_exponent(points) if workload == "linear-large" else 0.0
        metrics[f"{layer}.exp"] = (value, "1")
    return metrics


def fit_exponent(points):
    """Least-squares slope of log(seconds) against log(vertices)."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    den = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / den if den else 0.0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    speed = Speed()
    setup_real, setup_norm, eocd, jobs = set_up(args.workload, args.seed, speed)
    limit = workloads.LIMIT_S[args.workload]
    calls = Calls(eocd)
    tracer = Tracer() if args.trace else None
    traced_calls = Calls(eocd, tracer) if tracer else None

    untraced, traced, walls = Tally(jobs), Tally(jobs), []
    start = perf_counter()
    while True:
        use_trace = tracer is not None and len(untraced.batch) > len(traced.batch)
        t0 = perf_counter()
        if use_trace:
            traced.add(run_pass(jobs, traced_calls, limit, speed, tracer))
        else:
            untraced.add(run_pass(jobs, calls, limit, speed))
        walls.append(perf_counter() - t0)
        elapsed = perf_counter() - start
        if len(walls) >= MIN_PASSES and elapsed + statistics.median(walls) > args.seconds:
            break

    attempted = len(jobs) * len(walls)
    failed = untraced.failed + traced.failed
    wrong = [f for f in failed if f[2].startswith("wrong")]
    batch, norm_batch, norm_pooled = untraced.batch, untraced.norm_batch, untraced.norm_pooled
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    report = {
        "workload": args.workload, "seed": args.seed, "jobs_per_pass": len(jobs),
        "job_limit_s": limit, "passes_untraced": len(batch), "passes_traced": len(traced.batch),
        "real_setup_s": setup_real, "real_batch_s_quartiles": quartiles(batch),
        "real_job_s_p50": statistics.median(untraced.pooled),
        "batch_s_quartiles": quartiles(norm_batch), "job_s_samples": len(norm_pooled),
        "job_s_p90": percentile(norm_pooled, 0.9) if len(norm_pooled) >= 100 else None,
        "speed_kernel_s_quartiles": quartiles(speed.samples),
        "failures": sorted({f"{case} [{kind}]: {err}" for case, kind, err in failed}),
    }
    if args.trace:
        metrics = layer_metrics(tracer, jobs, untraced.case_times, args.workload)
        metrics["trace.overhead_s"] = (
            statistics.median(traced.norm_batch) - statistics.median(norm_batch), "s")
        metrics["speed.kernel_s"] = (statistics.median(speed.samples), "s")
        write_spans(tracer, args)
    else:
        metrics = {
            "setup_s": (statistics.median(setup_norm), "s"),
            "batch_s": (statistics.median(norm_batch), "s"),
            "job_s.p50": (statistics.median(norm_pooled), "s"),
            "pass_ratio": ((attempted - len(failed)) / attempted, "ratio"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
    print(json.dumps(report))
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def write_spans(tracer, args):
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for sid, parent, name, jid, t0, t1 in tracer.spans:
            fh.write(json.dumps({"id": sid, "parent": parent, "name": name, "job": jid,
                                 "start": t0, "end": t1}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
