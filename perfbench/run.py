#!/usr/bin/env python3
"""Build the benchmark driver (Release) and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload favorita-snowflake --seed 1 \
        --seconds 20 --trace 0 [--size full|smoke]

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
and is incremental. The driver's standard output is passed through; its last
line is the result object. With --trace 1 the spans are written to
<build>/traces/<workload>-seed<seed>.json.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("favorita-snowflake", "update-heavy-ddisk", "serve-mixed")
RUN_TIMEOUT_S = 170


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(root, "perfbench"))


def build(out):
    """Configure once, then build incrementally. Compiler output goes to
    stderr so that stdout carries only the driver's lines."""
    src = os.path.join(HERE, "..", "src", "CMakeLists.txt")
    if not os.path.isfile(src):
        sys.exit("perfbench: library sources not found next to perfbench/; "
                 "run from the root of a full checkout")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   stdout=sys.stderr)
    return os.path.join(out, "jbbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    args = ap.parse_args()

    out = build_dir()
    try:
        binary = build(out)
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit("perfbench: build failed: %s" % e)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size]
    if args.trace:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("perfbench: %s did not finish within %d s"
                 % (args.workload, RUN_TIMEOUT_S))
    sys.exit(code)


if __name__ == "__main__":
    main()
