#!/usr/bin/env python3
"""Launcher of the wire-level benchmark.

One run (what BENCHMARK.json's command does):

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

builds perfbench/main.exe with dune, then runs it from the repository root;
its last line of standard output is the result JSON.

Steadiness evidence:

    python3 perfbench/run.py --steady N --workload W [--seconds S] [--trace 0|1]

runs the workload N times with seeds 1..N and prints, per metric, the
median, the quartiles, the quartile spread as a share of the median, and
the largest relative deviation from the median; a metric whose runs do not
all lie within a tenth of the median is flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        sys.exit("perfbench: the repository (dune-project, lib/) is missing; "
                 "run from a full checkout")
    # dune's own output goes to stderr: stdout carries only the result
    r = subprocess.run(["dune", "build", "--root", ROOT, "./perfbench/main.exe"],
                       cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        sys.exit("perfbench: build failed")


def run_args(a, seed):
    return [EXE, "run", "--workload", a.workload, "--seed", str(seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace)]


def steady(a):
    runs = []
    for seed in range(1, a.steady + 1):
        r = subprocess.run(run_args(a, seed), cwd=ROOT, stdout=subprocess.PIPE,
                           text=True)
        lines = r.stdout.strip().splitlines()
        if r.returncode != 0 or not lines:
            sys.exit(f"perfbench: run with seed {seed} failed ({r.returncode})")
        res = json.loads(lines[-1])
        if not res["correct"] or res["failed"]:
            sys.exit(f"perfbench: run with seed {seed} had wrong answers or failures")
        runs.append(res["metrics"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
            file=sys.stderr, flush=True)
    flagged = []
    print(f"{'metric':36} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'maxdev':>8}")
    for name in runs[0]:
        vals = [m[name]["value"] for m in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        iqr = (q3 - q1) / med if med else 0.0
        dev = max(abs(v - med) for v in vals) / med if med else 0.0
        flag = dev > 0.1
        if flag:
            flagged.append(name)
        print(f"{name:36} {med:12.6g} {q1:12.6g} {q3:12.6g} {iqr:8.3f} {dev:8.3f}"
              + ("  FLAG" if flag else ""))
    print("flagged: " + (", ".join(flagged) if flagged else "none"))


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steady", type=int, default=0, metavar="N")
    a = p.parse_args()
    build()
    if a.steady:
        steady(a)
    else:
        os.chdir(ROOT)
        os.execv(EXE, run_args(a, a.seed))


if __name__ == "__main__":
    main()
