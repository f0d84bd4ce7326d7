#!/usr/bin/env python3
"""Repeats the benchmark and checks its figures against BENCHMARK.json.

Run from the root of a checkout:

    # N runs of one workload, seeds first-seed .. first-seed+N-1; prints each
    # metric's median, quartiles and spread (q3 - q1) / median, and saves
    # the runs.
    python3 perfbench/repeat.py run --workload hot_query --runs 10 \
        --out set_a.json [--first-seed 1] [--seconds 10] [--trace 0|1] \
        [--same-seed]

    # Compares two saved sets: every end-to-end metric's spread must stay
    # within its bound (setup_s excepted), the second median may be worse
    # than the first by at most the bound, and the share of failed
    # operations must be the same.
    python3 perfbench/repeat.py compare set_a.json set_b.json

With --trace 1 the per-layer metrics are collected instead; with
--same-seed every run uses the first seed, which shows whether the count
metrics repeat exactly. Quartiles are Python's statistics.quantiles(n=4).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit("run failed: %s seed %d" % (workload, seed))
    return json.loads(lines[-1])


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("inf")
    return median, q1, q3, spread


def report(result, bounds):
    print("%s  trace=%d  %d runs  failed/attempted %s" % (
        result["workload"], result["trace"], len(result["runs"]),
        ", ".join("%d/%d" % (r["failed"], r["attempted"])
                  for r in result["runs"])))
    names = list(result["runs"][0]["metrics"])
    print("%-32s %14s %14s %14s %8s %6s" % (
        "metric", "median", "q1", "q3", "spread", "bound"))
    for name in names:
        values = [r["metrics"][name]["value"] for r in result["runs"]]
        median, q1, q3, spread = summarize(values)
        bound = bounds.get(name)
        note = ""
        if bound is not None and name != "setup_s":
            note = "ok" if spread <= bound / 3 else (
                "within" if spread <= bound else "OVER")
        if result["runs"][0]["metrics"][name]["unit"] == "count":
            note = "repeats" if len(set(values)) == 1 else "varies"
        print("%-32s %14.6g %14.6g %14.6g %8.4f %6s %s" % (
            name, median, q1, q3, spread,
            "" if bound is None else "%.2f" % bound, note))


def cmd_run(args):
    bench = load_benchmark()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    runs = []
    for i in range(args.runs):
        seed = args.first_seed if args.same_seed else args.first_seed + i
        runs.append(run_once(args.workload, seed, seconds, args.trace))
        if not runs[-1]["correct"]:
            print("run with seed %d reported correct=false" % seed)
    result = {"workload": args.workload, "trace": args.trace, "runs": runs}
    report(result, bounds)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(result, f, indent=1)
    return 0 if all(r["correct"] for r in runs) else 1


def cmd_compare(args):
    bench = load_benchmark()
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    with open(args.first) as f:
        first = json.load(f)
    with open(args.second) as f:
        second = json.load(f)
    ok = True
    share = []
    for result in (first, second):
        failed = sum(r["failed"] for r in result["runs"])
        attempted = sum(r["attempted"] for r in result["runs"])
        share.append(failed / attempted)
    if share[0] != share[1]:
        print("failed share differs: %r vs %r" % tuple(share))
        ok = False
    print("%-20s %12s %8s %12s %8s %8s %6s" % (
        "metric", "median 1", "spread", "median 2", "spread", "change",
        "bound"))
    for name, metric in metrics.items():
        m1, _, _, s1 = summarize(
            [r["metrics"][name]["value"] for r in first["runs"]])
        m2, _, _, s2 = summarize(
            [r["metrics"][name]["value"] for r in second["runs"]])
        bound = metric["bound"]
        change = (m2 - m1) / m1 if m1 else 0.0
        worse = change if metric["better"] == "lower" else -change
        verdict = []
        if name != "setup_s" and max(s1, s2) > bound:
            verdict.append("SPREAD")
        if worse > bound:
            verdict.append("WORSE")
        ok = ok and not verdict
        print("%-20s %12.6g %8.4f %12.6g %8.4f %+8.4f %6.2f %s" % (
            name, m1, s1, m2, s2, change, bound, " ".join(verdict) or "ok"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run")
    run.add_argument("--workload", required=True)
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--first-seed", type=int, default=1)
    run.add_argument("--seconds", type=float, default=0)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--same-seed", action="store_true")
    run.add_argument("--out")
    compare = sub.add_parser("compare")
    compare.add_argument("first")
    compare.add_argument("second")
    args = parser.parse_args()
    return cmd_run(args) if args.command == "run" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
