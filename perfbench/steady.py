#!/usr/bin/env python3
"""Steadiness check: runs one workload k times, one seed each, and prints
the median, quartiles and spread of every end-to-end metric.

    python3 perfbench/steady.py --workload campus-wide --runs 10 --first-seed 1

Spread is (q3 - q1) / median with the quartiles of
statistics.quantiles(values, n=4); a metric is steady when its spread stays
below a third of its bound in BENCHMARK.json. Also prints the share of
failed windows, which must be the same in every run.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    values = {m["name"]: [] for m in spec["end_to_end"]}
    shares = set()
    for i in range(args.runs):
        seed = args.first_seed + i
        out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", args.workload,
                              "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                              "--trace", "0"], cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             check=True).stdout
        lines = out.strip().splitlines()
        info, result = json.loads(lines[0]), json.loads(lines[-1])
        shares.add(f"{result['failed']}/{result['attempted']}"
                   if result["failed"] else "0")
        row = {k: v["value"] for k, v in result["metrics"].items()}
        for k in values:
            values[k].append(row[k])
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} steal={info['cpu_steal_s']}s "
              + " ".join(f"{k}={v:.6g}" for k, v in row.items()), flush=True)

    print(f"workload {args.workload}, {args.runs} runs, failed shares {sorted(shares)}")
    for m in spec["end_to_end"]:
        xs = values[m["name"]]
        q1, med, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med
        flag = "" if spread < m["bound"] / 3 else "  <-- above bound/3"
        print(f"  {m['name']:16s} median {med:.6g} {m['unit']}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"spread {spread:.4f} (bound {m['bound']}){flag}")


if __name__ == "__main__":
    main()
