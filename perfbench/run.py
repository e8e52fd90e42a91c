#!/usr/bin/env python3
"""Build the parmvn end-to-end benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds
perfbench/CMakeLists.txt (the library from src/ plus the benchmark program) into
.bench_build/perfbench; later calls rebuild only what changed. Build output
goes to stderr, so the last line of stdout is the program's JSON result.
--self-test builds and runs the checker self-test instead. Extra program
flags (--workers, --arm) pass through unchanged.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no parmvn sources under src/; run from a full checkout")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    args = sys.argv[1:]
    build()
    if args == ["--self-test"]:
        exe, args = "perfbench_selftest", []
    else:
        exe = "perfbench"
    sys.stdout.flush()
    return subprocess.run([os.path.join(BUILD, exe)] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
