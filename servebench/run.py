#!/usr/bin/env python3
"""Build and run the serving benchmark from the root of a checkout.

    python3 servebench/run.py --workload small_frames --seed 1 --seconds 30 --trace 0

Configures and builds servebench/CMakeLists.txt (the repository's libraries,
the shipped sesr-serve and the servebench program) into .bench_build/, then
runs servebench with the same arguments. Build output is shown only when a
build step fails, so the last line of standard output is servebench's JSON
result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def step(cmd):
    """Run one build step quietly; show its output only when it fails."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.exit(f"servebench: build step failed: {' '.join(cmd)}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        sys.exit("servebench: no repository sources next to the benchmark; nothing to build")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        step(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    step(["cmake", "--build", BUILD, "-j", "4", "--target", "servebench"])


def main():
    build()
    program = os.path.join(BUILD, "servebench")
    return subprocess.run([program] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
