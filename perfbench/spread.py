#!/usr/bin/env python3
"""Runs one workload over several seeds and prints each metric's spread.

    python3 perfbench/spread.py <workload> [first_seed [count [trace]]]

Spread is (Q3 - Q1) / median over the seeds, with quartiles from
statistics.quantiles(values, n=4); BENCHMARK.json bounds the gated ones.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    workload = sys.argv[1]
    first = int(sys.argv[2]) if len(sys.argv) > 2 else 1
    count = int(sys.argv[3]) if len(sys.argv) > 3 else 10
    trace = sys.argv[4] if len(sys.argv) > 4 else "0"
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    values = {}
    for seed in range(first, first + count):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", str(seed), "--trace", trace],
            stdout=subprocess.PIPE, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        wall = " ".join(f"{name}={m['value']:.6g}"
                        for name, m in result["metrics"].items()
                        if name in ("kv_per_ref", "setup_s"))
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} {wall}",
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, v in values.items():
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None else f" bound={bound} {'ok' if spread <= bound / 3 else 'WIDE'}"
        print(f"{name:36s} median={med:<14.6g} spread={spread:.4f}{flag}")


if __name__ == "__main__":
    main()
