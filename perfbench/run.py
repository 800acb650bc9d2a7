#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark of the proxy grid.

Run from the repository root:

    python3 perfbench/run.py --workload control --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (which compiles the
repository's src/ libraries) into .perfbench_build/; later calls rebuild only
what changed. Build output goes to standard error, so the last line of
standard output is the benchmark's JSON result. Traced runs write their spans
to .perfbench_out/. See perfbench/README.md.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".perfbench_build")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
BUILD_JOBS = "4"


def build(target):
    """Configures (once) and builds `target`; returns the exit code."""
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        code = subprocess.call(
            ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr)
        if code != 0:
            return code
    return subprocess.call(
        ["cmake", "--build", BUILD_DIR, "-j", BUILD_JOBS, "--target", target],
        stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the checks' own test")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    target = "perfbench_selftest" if args.selftest else "perfbench"
    code = build(target)
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return code or 1
    binary = os.path.join(BUILD_DIR, target)
    if args.selftest:
        return subprocess.call([binary])
    sys.stdout.flush()
    return subprocess.call([
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", args.trace, "--out", OUT_DIR,
    ])


if __name__ == "__main__":
    sys.exit(main())
