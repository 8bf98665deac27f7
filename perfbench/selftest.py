#!/usr/bin/env python3
"""Determinism self-test of the benchmark.

    python3 perfbench/selftest.py [--seed 7] [--workloads rl-rollouts,...]

Runs each workload for exactly one round (the work its seed fixes) twice with
one seed and requires equal work digests, then once with the next seed and
requires a different digest. Every run must also pass its output checks with
no failed operation. Exits non-zero on the first violation.
"""

import argparse
import sys

from repeat import WORKLOADS, run_once


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    args = ap.parse_args()
    ok = True
    for w in args.workloads.split(","):
        runs = [run_once(w, s, 1, 0, rounds=1)
                for s in (args.seed, args.seed, args.seed + 1)]
        digests = [d for _, d, _ in runs]
        clean = all(r["correct"] and r["failed"] == 0 for r, _, _ in runs)
        same = digests[0] == digests[1] and digests[0] != ""
        differs = digests[2] != digests[0]
        print("%-16s digests %s | repeat equal %s | other seed differs %s | "
              "checks clean %s" % (w, " ".join(digests), same, differs, clean))
        ok = ok and same and differs and clean
    print("PASS" if ok else "FAIL")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
