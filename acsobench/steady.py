#!/usr/bin/env python3
"""Steadiness check: runs every workload repeatedly, interleaved, and prints
the median and quartiles of every metric with attempted/failed counts.

    python3 acsobench/steady.py [--repeats N] [--seconds S] [--seed-base N]
                                [--workloads a,b]

Run it from the repository root. Repetition i runs every workload once, in
the order of BENCHMARK.json, with seed `seed-base + i`, so slow phases of the
host fall on every workload alike rather than on one. For each metric it
prints the median, the first and third quartile (Python's
`statistics.quantiles(values, n=4)`), and the spread: (Q3 - Q1) / median.
The bounds in BENCHMARK.json are set from this output; an end-to-end spread
must stay under its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(command, workload, seed, seconds):
    args = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stdout[-2000:]}")
    return json.loads(lines[-1])


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else float("nan")
    return median, q1, q3, spread


def main():
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args()
    if args.repeats < 2:
        parser.error("--repeats must be at least 2 for quartiles")

    workloads = args.workloads.split(",")
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    results = {w: [] for w in workloads}
    for i in range(args.repeats):
        for w in workloads:
            result = run_once(bench["command"], w, args.seed_base + i, args.seconds)
            results[w].append(result)
            print(f"run {i + 1}/{args.repeats} {w}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", file=sys.stderr)

    for w in workloads:
        runs = results[w]
        attempted = [r["attempted"] for r in runs]
        failed = [r["failed"] for r in runs]
        shares = sorted({f"{f}/{a}" for f, a in zip(failed, attempted)})
        print(f"\n== {w}: {len(runs)} runs, correct {sum(r['correct'] for r in runs)}/{len(runs)}, "
              f"attempted {min(attempted)}..{max(attempted)}, failed {min(failed)}..{max(failed)}, "
              f"failed share {sorted({f / a for f, a in zip(failed, attempted)})} ({', '.join(shares[:4])})")
        print(f"{'metric':34} {'unit':6} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            median, q1, q3, spread = summarise(values)
            bound = bounds.get(name)
            flag = "" if bound is None or spread <= bound / 3 else "  <-- above a third of its bound"
            print(f"{name:34} {unit:6} {median:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} "
                  f"{'' if bound is None else bound:>6}{flag}")


if __name__ == "__main__":
    main()
