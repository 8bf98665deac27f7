#!/usr/bin/env python3
"""Builds the end-to-end benchmark binary and runs one workload.

    python3 perfbench/run.py --workload <rl-rollouts|autotune-fanout|tenant-serving>
                             --seed <n> --seconds <s> --trace <0|1> [--rounds <n>]

Run it from the root of a checkout. The first call configures and builds a
Release binary of the library sources under .bench_build/perfbench (build
output goes to stderr); later calls rebuild only what changed. The workload
then runs in its own process, and its standard output, whose last line is
the JSON result, is passed through. Exits non-zero without a result when the
library sources are missing or the build or the run fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "CompilerEnv.h")):
        fail("no library sources under " + os.path.join(ROOT, "src"))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        os.makedirs(BUILD, exist_ok=True)
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("configure failed")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if subprocess.call(["cmake", "--build", BUILD, "-j", jobs], stdout=sys.stderr) != 0:
        fail("build failed")


def main():
    args = sys.argv[1:]
    if "--workload" not in args:
        fail("usage: run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>")
    build()
    # The workload's working directory is the build directory: the
    # tenant-serving gateway puts its Unix socket there.
    proc = subprocess.Popen([BINARY] + args, cwd=BUILD)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        raise
    if code != 0:
        fail("run failed with exit code %d" % code)


if __name__ == "__main__":
    main()
