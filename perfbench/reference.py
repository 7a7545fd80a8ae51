#!/usr/bin/env python3
"""Reference figures: run the benchmark over several seeds, one run at a time.

    python3 perfbench/reference.py --runs 10 --first-seed 1 --output .perfbench_out/ref.json

Runs perfbench/run.py once per (workload, seed) from the current checkout
root, with the run length from BENCHMARK.json, and reports for every
end-to-end metric the median, the quartiles (statistics.quantiles, n=4)
and their distance as a share of the median, together with the share of
failed operations and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()


def environment():
    import numpy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "cpus": os.cpu_count(), "git_sha": sha}


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    p.add_argument("--output")
    args = p.parse_args(argv)

    report = {"environment": environment(), "run_seconds": bench["run_seconds"],
              "seeds": list(range(args.first_seed, args.first_seed + args.runs)),
              "workloads": {}}
    for name in args.workloads:
        values, shares, correct = {}, [], True
        for seed in report["seeds"]:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{name} seed {seed}: exit code {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            correct &= result["correct"]
            shares.append(result["failed"] / result["attempted"])
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
        rows = {}
        for metric, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            rows[metric] = {"median": med, "q1": q1, "q3": q3,
                            "spread": (q3 - q1) / med, "values": vals}
            print(f"{name:17s} {metric:13s} median {med:12.5g}  q1 {q1:12.5g}  "
                  f"q3 {q3:12.5g}  spread {100 * (q3 - q1) / med:5.2f} %", flush=True)
        report["workloads"][name] = {"correct": correct, "failed_share": shares, "metrics": rows}
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
