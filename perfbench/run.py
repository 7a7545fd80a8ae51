#!/usr/bin/env python3
"""attkit benchmark: one workload per invocation, run from a checkout root.

    python3 perfbench/run.py --workload determine --seed 1 --seconds 20 --trace 0

Imports attkit from ./src of the current directory and nothing else. With
--trace 0 it times whole rounds of the workload's operations for about
--seconds seconds and prints the end-to-end metrics; with --trace 1 it
runs one round untraced, one traced and one more untraced, whatever
--seconds says, so that every count repeats exactly, and prints the
per-layer metrics. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

# One caller, one thread: keep the BLAS pool from adding threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import speed  # noqa: E402  (after the thread settings: it imports numpy)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("determine", "filter_free", "filter_potential", "montecarlo")
SETUP_REPEATS = 9
IMPORT_PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import attkit\n"
    "t1 = time.perf_counter()\n"
    "import speed\n"
    "kernel = sorted(speed.kernel_time() for _ in range(5))[2]\n"
    "print(repr(t1 - t0), repr(kernel), attkit.__file__)\n"
)


def import_seconds():
    """Time `import attkit` in a fresh interpreter that sees only ./src, at
    the reference speed of the CPU the child ran on (its own kernel runs,
    right after the import, give the factor)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, HERE]))
    proc = subprocess.run(
        [sys.executable, "-s", "-c", IMPORT_PROBE],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    seconds, kernel, path = proc.stdout.split()
    if not os.path.abspath(path).startswith(SRC + os.sep):
        raise RuntimeError(f"attkit imported from {path}, not from {SRC}")
    return float(seconds) * speed.NOMINAL_S / float(kernel)


def setup(make, seed, workdir, probe):
    """Build the workload SETUP_REPEATS times, each after a fresh-interpreter
    import; returns the last workload and the median set-up time at the
    reference speed."""
    times, wl = [], None
    for _ in range(SETUP_REPEATS):
        wl = None  # one set of inputs alive at a time
        t_import = import_seconds()
        wl, t_build, factor = probe.measure(make, seed, workdir)
        times.append(t_import + t_build * factor)
    return wl, statistics.median(times)


def run_round(wl, probe, tally, rates=None, call=None):
    """Run one round of operations; returns its time at the reference speed
    and its wall time."""
    scaled = wall = 0.0
    for k in range(wl.ops_per_round):
        args = (k,) if call is None else (wl.run_op, k)
        (attempted, failed), own, factor = probe.measure(call or wl.run_op, *args)
        scaled += own * factor
        wall += own
        tally[0] += attempted
        tally[1] += failed
        if rates is not None:
            rates.append((wl.work(k) / (own * factor), wl.work(k) / own))
        wl.collect(k)
    return scaled, wall


def timed_run(wl, probe, seconds):
    """Whole rounds until `seconds` have passed; the throughput is the median
    over the operations, each timed alone and rescaled to the reference
    speed. Also returns the median of the plain wall-clock rates."""
    tally, rates = [0, 0], []
    start = time.perf_counter()
    while True:
        run_round(wl, probe, tally, rates)
        if time.perf_counter() - start >= seconds:
            break
    return (tally, statistics.median(r for r, _ in rates),
            statistics.median(r for _, r in rates))


def traced_run(wl, probe, out_path):
    """One round untraced, one traced, one more untraced; returns the tally,
    the per-layer metrics and any accounting problems. The round count is
    fixed, so every count repeats exactly."""
    import spans

    tally = [0, 0]
    base, _ = run_round(wl, probe, tally)
    tracer = spans.Tracer()
    tracer.install()
    probe.on_tick = tracer.steal
    try:
        traced, traced_wall = run_round(wl, probe, tally, call=tracer.root)
    finally:
        probe.on_tick = None
        tracer.uninstall()
    base = 0.5 * (base + run_round(wl, probe, tally)[0])
    tracer.write(out_path)

    per_name, min_self, root_total = tracer.summary()
    metrics = {}
    for label in spans.boundary_labels():
        metrics[f"{label}.calls"] = {"value": per_name[label]["calls"], "unit": "count"}
        metrics[f"{label}.self_s"] = {"value": per_name[label]["self_s"], "unit": "s"}
    prop = per_name["dynamics.propagate"]["self_s"]
    bench_self = per_name[spans.ROOT]["self_s"]
    attributed = sum(v["self_s"] for n, v in per_name.items() if n != spans.ROOT)
    metrics["dynamics.steps"] = {"value": tracer.steps, "unit": "count"}
    metrics["dynamics.step_us"] = {
        "value": 1e6 * prop / tracer.steps if tracer.steps else 0.0, "unit": "us"}
    metrics["bench.self_s"] = {"value": bench_self, "unit": "s"}
    metrics["trace.attributed_pct"] = {"value": 100.0 * attributed / root_total, "unit": "%"}
    metrics["trace.overhead_pct"] = {"value": 100.0 * (traced / base - 1.0), "unit": "%"}
    # The spans must account for the run: the self times add up to the root
    # spans, the root spans to the operations' wall time, and no self time
    # is negative.
    problems = []
    if min_self < -1e-6:
        problems.append(f"trace: negative self time {min_self:.3e} s")
    if abs(attributed + bench_self - root_total) > 1e-6 * root_total:
        problems.append("trace: self times do not add up to the root spans")
    if abs(root_total - traced_wall) > 0.01 * traced_wall:
        problems.append(f"trace: spans cover {root_total:.4f} s of {traced_wall:.4f} s")
    return tally, metrics, problems


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "attkit", "__init__.py")):
        print(f"error: no attkit sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    outdir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(outdir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=outdir)
    try:
        with speed.SpeedProbe() as probe:
            wl, setup_s = setup(workloads.WORKLOADS[args.workload], args.seed, workdir, probe)
            if args.trace:
                trace_path = os.path.join(outdir, f"trace-{args.workload}-{args.seed}.npz")
                tally, metrics, problems = traced_run(wl, probe, trace_path)
            else:
                tally, rate, wall_rate = timed_run(wl, probe, args.seconds)
                peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if not args.trace:
            print(f"wall-clock rate (not rescaled): {wall_rate:.6g} per s", file=sys.stderr)
            # A determination problem is one single-epoch solve and every
            # filter epoch makes exactly one Wahba solve, so the two
            # throughputs count the same operations on every workload.
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "solves_per_s": {"value": rate, "unit": "1/s"},
                "epochs_per_s": {"value": rate, "unit": "1/s"},
                "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
            }
            problems = []
        problems += wl.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": tally[0],
        "failed": tally[1],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
