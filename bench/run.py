#!/usr/bin/env python3
"""fflat benchmark: one workload per run, its operations in one process and one thread.

    python3 bench/run.py --workload reduce --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; fflat is imported from ./src.  The
workload's operations (fflat commands on seeded instance files, see
workloads.py) run in passes: every pass runs every operation once, in
the same order, and passes repeat until --seconds have gone by (at
least MIN_PASSES).  A fixed piece of reference work, timed before and
after every operation, gives the speed of the machine at that moment:
on a shared machine it changes by half within seconds, for fflat and
the reference work alike.  An operation's time is the median over its
passes (the first pass, a warm-up, left out) of its time over the
reference work's, in seconds at the reference speed (REF_S).  Answers
are checked after the last pass (checks.py), outside the timed region.
Set-up, the import of fflat in a new interpreter and the writing of the
instance files, is timed SETUPS times in the same way, spread over the
run between passes.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; attempted and failed
count the operations of one pass.  With --trace 0 the
metrics are the end-to-end ones (batch_s, solve_ms_p50, setup_s,
peak_rss_mb); with --trace 1 the per-layer ones from tracing.py.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import gc
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

MIN_PASSES = 3
SETUPS = 11

import checks  # noqa: E402  (benchmark modules live next to this file)
import ownmath  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# the reference work: determinants of two fixed 7 x 7 matrices over
# F_3[x] in the benchmark's own arithmetic, the same in every run; it
# takes about REF_S seconds when the machine is quiet, and the metrics
# are in seconds at that speed
REF_S = 0.003


def _reference_matrices():
    F = ownmath.field_for(3)
    rng = random.Random("reference")
    out = []
    while len(out) < 2:
        m = [[ownmath.trim([rng.randrange(3) for _ in range(4)]) for _ in range(7)]
             for _ in range(7)]
        if ownmath.det(F, m):
            out.append(m)
    return F, out


REF_FIELD, REF_MATRICES = _reference_matrices()


def reference() -> float:
    """Seconds the reference work takes now."""
    t0 = perf_counter()
    for m in REF_MATRICES:
        ownmath.det(REF_FIELD, m)
    return perf_counter() - t0

# run in a new interpreter: the time a user's process spends importing fflat
IMPORT_TIMER = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
                "import fflat.cli; print(time.perf_counter() - t0)")


def import_fflat():
    """Import fflat from ./src into this process and return fflat.cli."""
    sys.path.insert(0, SRC)
    cli = importlib.import_module("fflat.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"fflat imported from {cli.__file__}, not from {SRC}")
    return cli


def setup(files) -> float:
    """One set-up as a user's process pays it, importing fflat in a new
    interpreter and then writing the workload's instance files, over the
    reference work around it.  Making up the instances is the
    benchmark's own work and not timed."""
    before = reference()
    child = subprocess.run([sys.executable, "-c", IMPORT_TIMER, SRC],
                           capture_output=True, text=True, check=True)
    t0 = perf_counter()
    files.save()
    t = float(child.stdout) + perf_counter() - t0
    return t / ((before + reference()) / 2)


# what a user sees from one command: exit code (None for an uncaught
# exception), standard output and standard error
Result = collections.namedtuple("Result", "code out err")


def run_op(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = cli.main(argv)
        except (Exception, SystemExit) as e:  # a traceback, as a user would get
            code = None
            err.write(f"{type(e).__name__}: {e}")
        t = perf_counter() - t0
    return t, Result(code, out.getvalue(), err.getvalue())


def measure(cli, ops, seconds: float, tracer=None, between=None):
    """Run passes over ops; returns per-op times, each over the mean of
    the reference work before and after it, and first-pass results.
    between(), if given, runs after each pass, outside the timing."""
    times = [[] for _ in ops]
    results = [None] * len(ops)
    unsteady = []
    start = perf_counter()
    passes = 0
    while passes < MIN_PASSES or perf_counter() - start < seconds:
        if tracer is not None:
            # the first pass counts ffcore calls and records raw spans;
            # the later ones time the layers without the counters
            tracer.begin_pass(record_raw=passes == 0)
            if passes == 0:
                tracer.install_counters()
        gc.collect()
        ref = reference()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.begin_op(i)
            t, res = run_op(cli, op.argv)
            after = reference()
            times[i].append(t / ((ref + after) / 2))
            ref = after
            if results[i] is None:
                results[i] = res
            elif res != results[i] and op.label not in unsteady:
                unsteady.append(op.label)
        if tracer is not None:
            if passes == 0:
                tracer.uninstall_counters()
            tracer.end_pass()
        passes += 1
        if between is not None:
            between()
    return times, results, passes, unsteady


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fflat", "__init__.py")):
        print(f"error: no fflat package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    workdir = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    ops, files = workloads.build(args.workload, args.seed, workdir)
    # an untraced run times the set-up SETUPS times: before the first
    # pass, then after the first pass past each SETUPS-th of the run, so
    # that its median, like the operation times, samples the whole run
    setups = []
    wanted = 1 if args.trace else SETUPS
    try:
        setups.append(setup(files))
        cli = import_fflat()
        start = perf_counter()

        def setup_due():
            if len(setups) < wanted and \
                    perf_counter() - start >= len(setups) * args.seconds / SETUPS:
                setups.append(setup(files))

        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install_spans()
        try:
            times, results, passes, unsteady = measure(cli, ops, args.seconds, tracer,
                                                       setup_due)
        finally:
            if tracer is not None:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        while len(setups) < wanted:
            setups.append(setup(files))
        failed = [not op.answered(res) for op, res in zip(ops, results)]
        problems = [f"answer differs between passes: {label}" for label in unsteady]
        # only the named faults may fail; any other failure is wrong
        problems += [f"timed operation gave no answer: {op.label}"
                     for op, bad in zip(ops, failed) if bad and op.timed]
        try:
            problems += checks.check(args.workload, ops, results,
                                     lambda argv: run_op(cli, argv)[1])
        except Exception as e:  # an answer the checks cannot read is wrong
            problems.append(f"checks stopped: {type(e).__name__}: {e}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    for op, res, bad in zip(ops, results, failed):
        if bad:
            print(f"failed: {op.label}: exit {res.code}: {res.err.strip()[-200:]}",
                  file=sys.stderr)

    # the first pass warms up; MIN_PASSES leaves at least two after it
    cost = [statistics.median(ts[1:]) * REF_S for ts in times]
    timed = [c for op, c, bad in zip(ops, cost, failed) if op.timed and not bad]
    batch_s = sum(timed)
    if tracer is not None:
        metrics = tracer.metrics(batch_s)
        os.makedirs(OUT, exist_ok=True)
        tracer.dump(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json"),
                    [op.label for op in ops])
    else:
        metrics = {
            "batch_s": {"value": batch_s, "unit": "s"},
            "solve_ms_p50": {"value": statistics.median(timed) * 1e3, "unit": "ms"},
            "setup_s": {"value": statistics.median(setups) * REF_S, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    classes = {}
    for op, c, bad in zip(ops, cost, failed):
        if op.timed and not bad:
            n, s = classes.get(op.klass, (0, 0.0))
            classes[op.klass] = (n + 1, s + c)
    for klass, (n, s) in classes.items():
        print(f"  {klass:28s} {n:3d} ops  {s * 1e3:9.2f} ms", file=sys.stderr)
    print(f"{args.workload}: {len(ops)} operations x {passes} passes, "
          f"{sum(failed)} failing per pass", file=sys.stderr)
    # counted per pass: every pass runs the same operations and must give
    # the same answers, so the counts do not depend on how many passes fit
    print(json.dumps({
        "correct": not problems,
        "attempted": len(ops),
        "failed": sum(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
