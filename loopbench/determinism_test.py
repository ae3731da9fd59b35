#!/usr/bin/env python3
"""Determinism test of the loop benchmark.

The work a run does must be a function of its seed alone: the query, cache
hit, row, vote, verdict and link-change counts, the learner-series digest and
f1_final. This runs every workload briefly twice at two reader threads and
once at one reader thread, and requires identical WORK lines.

Usage (from the repository root):

    python3 loopbench/determinism_test.py [--epochs N] [--seed N]

Exits 0 when every workload is deterministic, 1 otherwise.
"""
import argparse
import json
import subprocess
import sys

import run


def work(workload, seed, epochs, readers):
    out = subprocess.run(
        [run.BINARY, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "0", "--epochs", str(epochs),
         "--setups", "1", "--readers", str(readers)],
        stdout=subprocess.PIPE, text=True, timeout=run.RUN_TIMEOUT_S)
    if out.returncode != 0:
        raise RuntimeError("%s readers=%d exited %d" %
                           (workload, readers, out.returncode))
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError("%s readers=%d: incorrect result %s" %
                           (workload, readers, lines[-1]))
    return json.loads(next(l for l in lines if l.startswith("WORK "))[5:])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--epochs", type=int, default=8)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()
    run.build()
    ok = True
    for workload in ("serve", "learn", "grow"):
        runs = {
            "2 readers": work(workload, args.seed, args.epochs, 2),
            "2 readers again": work(workload, args.seed, args.epochs, 2),
            "1 reader": work(workload, args.seed, args.epochs, 1),
        }
        reference = runs["2 readers"]
        for label, counters in runs.items():
            if counters != reference:
                ok = False
                print("FAIL %s (%s): %s != %s" %
                      (workload, label, counters, reference))
        print("%s %s: %s" % ("ok  " if ok else "FAIL", workload,
                             json.dumps(reference)))
    print("determinism: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
