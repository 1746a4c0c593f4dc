#!/usr/bin/env python3
"""Run the benchmark over several seeds and keep each run's output.

    python3 perfbench/sweep.py OUT_DIR --seeds 1-10 [--workloads a,b]
        [--trace 0|1] [--seconds N] [--size full|smoke]

Writes OUT_DIR/<workload>-seed<N>-trace<T>.out, one file per run, in the
form compare.py reads. Runs one at a time; stops at the first run that exits
non-zero.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    bench = json.load(open(os.path.join(HERE, "..", "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("out")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    ap.add_argument("--seconds", default=str(bench["run_seconds"]))
    ap.add_argument("--size", default="full", choices=("full", "smoke"))
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)
    for workload in args.workloads.split(","):
        for seed in seeds(args.seeds):
            path = os.path.join(args.out, "%s-seed%d-trace%s.out"
                                % (workload, seed, args.trace))
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", args.seconds, "--trace", args.trace,
                   "--size", args.size]
            with open(path, "w") as out:
                code = subprocess.run(cmd, stdout=out,
                                      stderr=subprocess.DEVNULL).returncode
            last = open(path).read().strip().splitlines()[-1:]
            print("%s seed %d: exit %d %s" % (workload, seed, code,
                                              last[0][:80] if last else ""))
            if code != 0:
                sys.exit(code)


if __name__ == "__main__":
    main()
