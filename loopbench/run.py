#!/usr/bin/env python3
"""Builds and runs the ALEX loop benchmark.

Usage (from the repository root):

    python3 loopbench/run.py --workload serve|learn|grow --seed N \
        --seconds S --trace 0|1

Builds loop_bench from the repository's src/ tree into .bench_build/loopbench
(Release), runs it, and prints its output. The last line is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end metrics
of BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. A
traced run also writes its spans to .bench_build/loopbench/trace-*.tsv.

Exits non-zero without a result line when the build or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "loopbench")
BINARY = os.path.join(BUILD, "loop_bench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("loopbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds loop_bench; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found under " + os.path.join(ROOT, "src"))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "loop_bench",
                  "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(step))


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["serve", "learn", "grow"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-out", os.path.join(
            BUILD, "trace-%s-%d.tsv" % (args.workload, args.seed))]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("loop_bench timed out")
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail("loop_bench exited with code %d" % run.returncode)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("last output line is not a JSON result")

    names = declared_metrics(args.trace)
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        fail("metrics missing from the result: " + ", ".join(missing))
    extra = {k: v for k, v in result["metrics"].items() if k not in names}
    result["metrics"] = {n: result["metrics"][n] for n in names}

    for line in lines[:-1]:
        print(line)
    if extra:
        print("extra " + json.dumps(extra))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
