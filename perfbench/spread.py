#!/usr/bin/env python3
"""Run the benchmark on several seeds and print each metric's spread.

    python3 perfbench/spread.py --workload serve-mix --seeds 1-10 [--seconds 30] [--trace 0]

Run from the repository root. For every metric it prints the median,
the first and third quartiles (statistics.quantiles, n=4) and the
spread: the distance between the quartiles as a share of the median.
A run that exits non-zero or reports correct=false is listed and left
out of the statistics. --jsonl appends every run's result line to a file.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="30")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--jsonl")
    args = ap.parse_args()

    values, units = {}, {}
    for seed in seeds(args.seeds):
        cmd = ["bash", "perfbench/run.sh", "--workload", args.workload, "--seed", str(seed),
               "--seconds", args.seconds, "--trace", args.trace]
        p = subprocess.run(cmd, capture_output=True, text=True)
        if p.returncode != 0:
            print(f"seed {seed}: exit {p.returncode}: {p.stderr.strip()[-300:]}")
            continue
        result = json.loads(p.stdout.strip().splitlines()[-1])
        if args.jsonl:
            with open(args.jsonl, "a") as f:
                f.write(json.dumps({"workload": args.workload, "seed": seed, "result": result}) + "\n")
        if not result["correct"]:
            print(f"seed {seed}: correct=false, {result['failed']} of {result['attempted']} ops failed")
            continue
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    print(f"{'metric':34s} {'n':>3s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s}  unit")
    for name in sorted(values):
        v = values[name]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], None, v[0])
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:34s} {len(v):3d} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.3f}  {units[name]}")


if __name__ == "__main__":
    sys.exit(main())
