#!/usr/bin/env python3
"""Builds gcbench from this checkout and runs one benchmark workload.

Run from the repository root:

    python3 perfbench/run.py --workload dcday_seq --seed 13 --seconds 20 --trace 0

The harness is compiled (Release) from perfbench/ and the simulator
sources in src/ into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); later runs only rebuild what changed.  Build
output goes to stderr; stdout is the harness's report, whose last line is
the JSON result.  The exit code is the harness's: 0 when every output
check passed.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("dcday_seq", "dcday_sinks", "fleet_sharded", "cp_serve")
BUILD_TIMEOUT_S = 850
# The longest workload run measures --seconds plus set-up and its once-only
# checks; anything far beyond that is a hang.
RUN_SLACK_S = 120


def build(root):
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(root, build_dir)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "gcbench", "-j", jobs])
    for cmd in steps:
        subprocess.run(cmd, cwd=root, stdout=sys.stderr, stderr=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "gcbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="small inputs (smoke test)")
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        sys.exit("run.py: no simulator sources under src/ here; run from the repository root")
    if args.seed < 0 or args.seconds < 1:
        sys.exit("run.py: --seed must be >= 0 and --seconds >= 1")
    try:
        binary = build(root)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        sys.exit(f"run.py: build failed: {e}")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.quick:
        cmd.append("--quick")
    try:
        done = subprocess.run(cmd, cwd=root, timeout=args.seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: gcbench timed out")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
