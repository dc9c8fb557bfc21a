#!/usr/bin/env python3
"""Build and run the HyVE host-performance benchmark (see README.md).

    python3 perfbench/run.py --workload grid-default --seed 0 --seconds 20 --trace 0

Builds perfbench/ (and the simulator libraries it compiles from src/) into
.bench_build/ at the repository root, writes the workload's datasets into a
cache there, then runs the workload in one process. The last line of
standard output is the result JSON; the exit code is non-zero when the
build fails or any correctness check fails.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("grid-default", "kernel-sweep", "dynamic-mix")
BUILD_TIMEOUT_S = 840
WARM_TIMEOUT_S = 300
RUN_TIMEOUT_S = 175


def run_checked(cmd, timeout, **kwargs):
    """Runs cmd to completion (killing it on timeout); returns its exit code."""
    with subprocess.Popen(cmd, **kwargs) as proc:
        try:
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print(f"perfbench: timed out: {' '.join(map(str, cmd))}", file=sys.stderr)
            return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    here = Path(__file__).resolve().parent
    work = here.parent / ".bench_build"
    build = work / "perfbench"
    binary = build / "perfbench"
    data = work / "data"
    # Compiler and library temporaries stay inside the checkout too.
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, HYVE_DATASET_CACHE=str(work / "datasets"), TMPDIR=str(tmp))

    # Build output goes to stderr: stdout must end with the result line.
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (
        ["cmake", "-S", str(here), "-B", str(build), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(build), "--target", "perfbench", "-j", jobs],
    ):
        if run_checked(cmd, BUILD_TIMEOUT_S, env=env, stdout=sys.stderr) != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 1

    common = ["--workload", args.workload, "--data", str(data)]
    if run_checked([binary, "warm", *common], WARM_TIMEOUT_S, env=env, stdout=sys.stderr) != 0:
        print("perfbench: dataset warm-up failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return run_checked(
        [binary, "run", *common, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        RUN_TIMEOUT_S, env=env)


if __name__ == "__main__":
    sys.exit(main())
