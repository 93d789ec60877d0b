#!/usr/bin/env python3
"""Builds and runs the engine benchmark for one workload.

Run from the repository root:

    python3 perfbench/run.py --workload zipf_hot --seed 7 --seconds 10 --trace 0

The first run configures and builds perfbench/ (which pulls in the library
from the repository root) into .bench_build/; later runs only re-check the
build. The benchmark's output is passed through: its last stdout line is the
result object. The metric names it prints are checked against
BENCHMARK.json, and the exit status is the benchmark's own (nonzero on any
failed operation, wrong answer or invalid serve phase).
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"


def build():
    with open(os.path.join(BUILD_DIR, "build.log"), "w") as log:
        if not os.path.exists(os.path.join(BUILD_DIR, "build.ninja")):
            subprocess.run(
                ["cmake", "-S", "perfbench", "-B", BUILD_DIR, "-G", "Ninja",
                 "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=log, stderr=subprocess.STDOUT)
        subprocess.run(
            ["cmake", "--build", BUILD_DIR, "--target", "engine_bench",
             "-j", "4"],
            check=True, stdout=log, stderr=subprocess.STDOUT)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.exit(f"run.py: unknown workload {args.workload}")
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if args.trace == "1" else "end_to_end"]}

    os.makedirs(BUILD_DIR, exist_ok=True)
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit(f"run.py: build failed ({e}); see {BUILD_DIR}/build.log")

    trace_out = os.path.join(BUILD_DIR, f"trace-{args.workload}.jsonl")
    proc = subprocess.run(
        [os.path.join(BUILD_DIR, "engine_bench"), "--workload", args.workload,
         "--seed", args.seed, "--seconds", args.seconds, "--trace", args.trace,
         "--trace-out", trace_out],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        sys.exit(proc.returncode or 1)
    result = json.loads(lines[-1])
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != wanted:
        sys.exit(f"run.py: metrics {sorted(got.items())} do not match "
                 f"BENCHMARK.json {sorted(wanted.items())}")
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
