#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each end-to-end metric's
median, quartiles and spread (Q3 - Q1 over the median, from
statistics.quantiles(values, n=4)) against its bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload serve-zipf --seeds 1-10

Run from the repository root. Exits 1 when a run fails; the spread check
itself is reported, not enforced (setup_s is exempt from it).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = parser.parse_args()
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {}
    for seed in args.seeds:
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(spec["run_seconds"]), "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            check=False)
        if done.returncode != 0:
            print(done.stdout[-2000:])
            sys.exit(f"seed {seed}: exit code {done.returncode}")
        result = json.loads(done.stdout.strip().split("\n")[-1])
        print(f"seed {seed}: {time.monotonic() - start:.1f} s, "
              + ", ".join(f"{k} {v['value']:.6g}"
                          for k, v in result["metrics"].items()), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    if len(args.seeds) < 2:
        return
    print(f"\n{'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        print(f"{name:<16} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{spread:>8.4f} {bounds[name]:>6}")


if __name__ == "__main__":
    main()
