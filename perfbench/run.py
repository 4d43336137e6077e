#!/usr/bin/env python3
"""Build the swtnas search benchmark from source and run one workload.

    python3 perfbench/run.py --workload cifar-lcs --seed 1 --seconds 20 --trace 0

Run from the repository root.  The first call configures and builds the
repository's libraries plus the benchmark target into .bench_build (Release,
without the repository's tests, benches and examples); later calls only let
the build tool confirm nothing changed.  Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result.  The exit code is the
benchmark's: 0 when every output check passed.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
BINARY = os.path.join(BUILD_DIR, "perfbench", "swtnas_perfbench")
WORKLOADS = ("cifar-lcs", "uno-baseline", "nt3-lcs-durable")


def build():
    """Configure once, then build the benchmark target; False on failure."""
    if not os.path.isfile("CMakeLists.txt") or not os.path.isdir("src"):
        print("run.py: no swtnas sources here (run from the repository root)",
              file=sys.stderr)
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ".", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release",
                      "-DSWTNAS_BUILD_TESTS=OFF",
                      "-DSWTNAS_BUILD_BENCH=OFF",
                      "-DSWTNAS_BUILD_EXAMPLES=OFF",
                      "-DCMAKE_PROJECT_INCLUDE=" + os.path.join(HERE, "hook.cmake")])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "swtnas_perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("run.py: build step failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny searches, for the benchmark's own tests")
    args = parser.parse_args()
    if not build():
        return 3
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.smoke:
        cmd.append("--smoke")
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
