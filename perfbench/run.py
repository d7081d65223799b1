#!/usr/bin/env python3
"""Builds and runs the repo benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload gpu_stack|fleet_steady|fleet_faults \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
library sources under src/ together with the benchmark program into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later calls only
rebuild what changed. Build output goes to stderr; stdout is the benchmark's
report, whose last line is the JSON result. Every argument is passed through
to the benchmark binary, which validates it.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "simulator.h")):
        print("error: the library sources (src/) are missing next to perfbench/",
              file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"error: benchmark build failed: {err}", file=sys.stderr)
        return 2
    binary = os.path.join(build_dir, "lithos_perfbench")
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
