#!/usr/bin/env python3
"""Repeat runner: runs every workload k times, each in a fresh process.

    python3 perfbench/repeat.py [--runs 10] [--seconds 20] [--trace 0]
                                [--workloads rl-rollouts,tenant-serving]
                                [--first-seed 1] [--same-seed] [--out runs.json]

Run i uses seed first-seed + i (or first-seed for every run with --same-seed)
and alternates the order of the workloads from one run to the next. For each
workload and metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread, the distance
between the quartiles as a share of the median; then the share of failed
operations and the work digest of every run. Bounds in
BENCHMARK.json are set from these spreads, and two sets of runs agree when
their medians differ by less than the bounds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["rl-rollouts", "autotune-fanout", "tenant-serving"]


def run_once(workload, seed, seconds, trace, rounds=0):
    """Runs one workload through run.py; returns (result, digest)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if rounds:
        cmd += ["--rounds", str(rounds)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    elapsed = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d failed (exit %d)" % (workload, seed, proc.returncode))
    digest = next((l.split()[1] for l in lines if l.startswith("digest ")), "")
    return json.loads(lines[-1]), digest, elapsed


def summarize(workload, results):
    print("== %s (%d runs)" % (workload, len(results)))
    names = list(results[0][0]["metrics"])
    for name in names:
        values = [r["metrics"][name]["value"] for r, _ in results]
        unit = results[0][0]["metrics"][name]["unit"]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else 0.0
        print("  %-30s median %12.4f %-6s q1 %12.4f q3 %12.4f spread %.3f"
              % (name, med, unit, q1, q3, spread))
    shares = sorted({r["failed"] / r["attempted"] for r, _ in results})
    correct = all(r["correct"] for r, _ in results)
    print("  failed share %s, all correct %s" % (shares, correct))
    print("  digests %s" % " ".join(d for _, d in results))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--same-seed", action="store_true")
    ap.add_argument("--out", help="write every raw result to this JSON file")
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    results = {w: [] for w in workloads}
    for i in range(args.runs):
        seed = args.first_seed + (0 if args.same_seed else i)
        order = workloads if i % 2 == 0 else workloads[::-1]
        for w in order:
            result, digest, elapsed = run_once(w, seed, args.seconds, args.trace)
            results[w].append((result, digest))
            print("run %d %s seed %d: correct %s attempted %d failed %d "
                  "digest %s, %.1f s" % (i, w, seed, result["correct"],
                                        result["attempted"], result["failed"],
                                        digest, elapsed), flush=True)
    for w in workloads:
        summarize(w, results[w])
    if args.out:
        with open(args.out, "w") as f:
            json.dump({w: [{"result": r, "digest": d} for r, d in rs]
                       for w, rs in results.items()}, f, indent=1)


if __name__ == "__main__":
    main()
