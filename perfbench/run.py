#!/usr/bin/env python3
"""Build and run the open-loop serving benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
library and the benchmark (CMake, Release) into the build directory,
$CARGO_TARGET_DIR if set, else .bench_build/; later calls rebuild
incrementally. Build output goes to stderr, so the benchmark's last stdout
line is its JSON result. The exit code is the benchmark's (0 ok, 1 a
correctness check failed, 2 a usage, configuration or build error).
"""

import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
TARGET = "omg_perfbench"


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not \
            os.path.isdir(os.path.join(ROOT, "src")):
        fail("no library sources next to perfbench/ (expected CMakeLists.txt "
             "and src/ in " + ROOT + ")")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", TARGET,
                  "-j", jobs])
    for step in steps:
        result = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                stderr=sys.stderr)
        if result.returncode != 0:
            fail("build step failed: " + " ".join(step))


def main():
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(build_dir)
    work_dir = os.path.join(build_dir, "perfbench-run")
    os.makedirs(work_dir, exist_ok=True)
    binary = os.path.join(build_dir, TARGET)
    command = [binary] + sys.argv[1:] + [
        "--config-dir", os.path.join(BENCH_DIR, "configs"),
        # Relative, so the Unix-domain socket path stays short.
        "--work-dir", os.path.relpath(work_dir, ROOT)]
    sys.stdout.flush()
    result = subprocess.run(command, cwd=ROOT)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
