#!/usr/bin/env python3
"""Builds reoptd and the load generator from source, then runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload dup-fleet --seed 1 --seconds 10 --trace 0

Build output goes to $CARGO_TARGET_DIR (default: .bench_build) and to
stderr; stdout carries the run's report, whose last line is the JSON
result. The exit code is non-zero when the build fails, an output is wrong,
or an operation failed.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The load generator must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def build(build_dir):
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release", *generator],
        ["cmake", "--build", build_dir, "-j", str(min(4, os.cpu_count() or 1)),
         "--target", "reoptd", "perfbench_load"],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    build(build_dir)

    run_dir = os.path.join(build_dir, "run")
    os.makedirs(run_dir, exist_ok=True)
    # Unix socket paths are limited to 107 bytes; a relative path keeps the
    # daemon's socket short however deep the checkout sits.
    relative = os.path.relpath(run_dir)
    if len(relative) < len(run_dir):
        run_dir = relative
    cmd = [
        os.path.join(build_dir, "perfbench_load"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--reoptd", os.path.join(build_dir, "reoptd"),
        "--run-dir", run_dir,
    ]
    try:
        result = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
