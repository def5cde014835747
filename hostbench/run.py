#!/usr/bin/env python3
"""Build and run the host-time benchmark of the FLEP simulator.

Run from the root of the repository:

    python3 hostbench/run.py --workload fleet --seed 1 --seconds 10 --trace 0
    python3 hostbench/run.py --self-test

The first call configures and builds the benchmark package (this
directory's CMakeLists.txt, which builds the flep library from ../src)
into .bench_build/hostbench; later calls rebuild only what changed.
Build output goes to standard error, so the last line of standard
output is the benchmark's JSON result. The exit code is non-zero, and
no result is printed, when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "hostbench")


def build(target):
    """Configure (once) and build `target`; False on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", target,
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            print("hostbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=["paper_pairs", "fleet",
                                          "hetero_fleet"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true",
                   help="build and run the benchmark's own tests")
    args = p.parse_args()

    if args.self_test:
        if not build("hostbench_tests"):
            return 1
        return subprocess.run([os.path.join(BUILD, "hostbench_tests")],
                              cwd=ROOT).returncode
    if args.workload is None:
        p.error("--workload is required")
    if not build("hostbench"):
        return 1
    cmd = [os.path.join(BUILD, "hostbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out", os.path.join(
            BUILD, "spans-%s-%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
