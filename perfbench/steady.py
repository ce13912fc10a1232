#!/usr/bin/env python3
"""Steadiness check: runs one workload several times and reports, per
end-to-end metric, the median, the quartiles and the spread against the
bound in BENCHMARK.json.

    python3 perfbench/steady.py --workload <name> [--runs 10] [--seed 1]
                                [--seconds <s>] [--out results.json]

Run i uses seed `--seed + i`. The spread is the distance between the first
and third quartile (Python's `statistics.quantiles(values, n=4)`) as a
share of the median. A metric is marked OVER when its spread exceeds its
bound and WIDE when it exceeds a third of the bound. Every run must be
correct and fail no operation. Exits 1 if any metric is OVER or any run
is incorrect or failed an operation.
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


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        sys.exit(f"run with seed {seed} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), time.monotonic() - started


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--out", help="also write every run's result here")
    args = ap.parse_args()

    results = []
    for i in range(args.runs):
        r, wall = run_once(args.workload, args.seed + i, args.seconds, 0)
        results.append(r)
        print(f"seed {args.seed + i}: attempted {r['attempted']} failed {r['failed']} "
              f"correct {r['correct']} ({wall:.1f} s)", file=sys.stderr)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)

    failed = sum(r["failed"] for r in results)
    print(f"{args.workload}: {args.runs} runs, {failed} failed operations")
    bad = failed > 0 or not all(r["correct"] for r in results)
    print(f"{'metric':<22} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
    for m in bench["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        spread = (q3 - q1) / med if med else float("inf")
        verdict = "ok"
        if spread > m["bound"]:
            verdict, bad = "OVER", True
        elif spread > m["bound"] / 3:
            verdict = "WIDE"
        print(f"{m['name']:<22} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.4f} {m['bound']:>6}  {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
