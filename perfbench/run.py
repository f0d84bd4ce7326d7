#!/usr/bin/env python3
"""Builds and runs the dphist end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <hot_query|cold_publish|mixed_rw> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The first call configures and builds the library and the benchmark into
.bench_build/perfbench (build output goes to stderr); later calls only
rebuild what changed. The last line of standard output is the benchmark's
JSON result. --selftest builds and runs the self-test of the benchmark's
output checks instead.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(BUILD_DIR, "work")
# One run measures for --seconds plus a few seconds of set-up and checks;
# a run that takes this long has hung.
RUN_TIMEOUT_S = 170


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no dphist sources at %s/src" % ROOT, file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", target,
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the result line.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode:
            print("perfbench: build step failed: %s" % " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    target = "perfbench_selftest" if args.selftest else "perfbench"
    if not build(target):
        return 1
    binary = os.path.join(BUILD_DIR, target)
    if args.selftest:
        command = [binary]
    else:
        if args.workload is None:
            parser.error("--workload is required")
        command = [binary, "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--workdir", WORK_DIR]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
