#!/usr/bin/env python3
"""Run one workload on several seeds and print each metric's spread.

    python3 perfbench/spread.py <workload> [--runs N] [--first-seed S]
                                [--seconds T] [--trace 0|1]

The spread of a metric is the distance between the first and third
quartile of its values, as `statistics.quantiles(values, n=4)` gives
them, as a share of their median. Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    values = {}
    units = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: incorrect result {result}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:<36} median {med:>12.4f} {units[name]:<6} spread {spread:7.3f}")


if __name__ == "__main__":
    main()
