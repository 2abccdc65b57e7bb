#!/usr/bin/env python3
"""Tiny-scale smoke test of the benchmark.

    python3 perfbench/smoke_test.py

Run from the repository root. For every workload in BENCHMARK.json, and
for churn-uniform, which run.py runs but BENCHMARK.json does not list, it
runs perfbench/run.py at scale 0.03 for 1 second, untraced and traced, on two
seeds, and checks that:
  * each run exits 0 with a correct result, nothing failed, and every
    metric of its kind in BENCHMARK.json printed with its unit (run.py
    itself rejects a missing, extra or mis-united metric);
  * the two seeds give different inputs (the printed input fingerprint)
    but the same metric set.
Exits 1 on the first failed check.
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SCALE = "0.03"
SEEDS = (11, 12)
# Workloads run.py accepts that BENCHMARK.json does not gate on.
UNGATED = ("churn-uniform",)


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace), "--scale", SCALE]
    done = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, check=False)
    if done.returncode != 0:
        print(done.stdout[-3000:], done.stderr[-3000:], sep="\n")
        sys.exit(f"FAIL {workload} seed {seed} trace {trace}: "
                 f"exit {done.returncode}")
    lines = done.stdout.strip().split("\n")
    result = json.loads(lines[-1])
    found = re.search(r"fingerprint ([0-9a-f]+)", done.stdout)
    if found is None:
        sys.exit(f"FAIL {workload}: no input fingerprint printed")
    return result, found.group(1)


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    for name in [w["name"] for w in spec["workloads"]] + list(UNGATED):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[kind]}
            metric_sets, fingerprints = [], []
            for seed in SEEDS:
                result, fingerprint = run(name, seed, trace)
                if not result["correct"] or result["failed"] != 0:
                    sys.exit(f"FAIL {name} seed {seed} trace {trace}: "
                             f"correct={result['correct']} "
                             f"failed={result['failed']}")
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != want:
                    sys.exit(f"FAIL {name} trace {trace}: metric set differs "
                             "from BENCHMARK.json")
                metric_sets.append(sorted(got))
                fingerprints.append(fingerprint)
            if metric_sets[0] != metric_sets[1]:
                sys.exit(f"FAIL {name} trace {trace}: the metric set "
                         "changed with the seed")
            if fingerprints[0] == fingerprints[1]:
                sys.exit(f"FAIL {name}: seeds {SEEDS} gave the same inputs")
            print(f"ok {name} trace {trace}: {len(want)} metrics, inputs "
                  f"{fingerprints[0]} vs {fingerprints[1]}", flush=True)
    print("smoke test passed")


if __name__ == "__main__":
    main()
