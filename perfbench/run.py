#!/usr/bin/env python3
"""Builds and runs the repo benchmark on one workload.

Run from the repository root:

    python3 perfbench/run.py --workload fit-batch --seed 1 --seconds 20 --trace 0

The first run configures and builds perfbench/ (which pulls in the library
from the repository root) into $CARGO_TARGET_DIR, or .bench_build when that
is unset; later runs only rebuild what changed. The benchmark binary prints
its tables and, as the last stdout line, one JSON result. This script
checks that line against BENCHMARK.json (every metric of the run's kind,
nothing else, with its unit) and exits non-zero when the build fails, the
binary fails, a correctness gate fails or the result is malformed.
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fit-batch", "serve-zipf", "churn-uniform")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    generated = ("Makefile", "build.ninja")
    if not any(os.path.exists(os.path.join(build_dir, g)) for g in generated):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "snaple_perfbench", "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            fail(f"build step timed out: {' '.join(cmd)}")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(build_dir, "snaple_perfbench")


def expected_metrics(trace):
    path = os.path.join(HERE, "..", "BENCHMARK.json")
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail("the last output line is not a JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys are {sorted(result)}")
    if result["attempted"] < 1:
        fail("nothing was attempted")
    want = expected_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"extra {extra}, wrong unit {wrong}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(
                m["value"]):
            fail(f"metric {name} is not a finite number")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="replica scale; below 1 only for smoke tests")
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(build_dir)
    workdir = os.path.join(build_dir, "work")
    os.makedirs(workdir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", str(args.scale), "--workdir", workdir]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"the benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))
    if done.returncode not in (0, 1) or not lines[-1].startswith("{"):
        fail(f"the benchmark exited with code {done.returncode}", 2)
    result = check_result(lines[-1], args.trace == 1)
    print(lines[-1], flush=True)
    if done.returncode != 0 or not result["correct"]:
        fail("a correctness gate failed")


if __name__ == "__main__":
    main()
