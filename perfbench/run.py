#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload figure5|serve_warm|serve_routed \
        --seed N --seconds S --trace 0|1

Configures and builds the benchmark (the library under src/ plus the
C++ program in this directory) with CMake into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs
it with the given arguments. Build output goes to stderr, so the
benchmark's JSON result stays the last line of stdout. Exits non-zero,
without a result line, when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def step(cmd):
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        sys.exit("run.py: %s failed with exit code %d"
                 % (" ".join(cmd[:2]), r.returncode))


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no src/ next to perfbench/; run it from a "
                 "full checkout of the repository")
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                              ".bench_build"), "perfbench")
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        step(["cmake", "-S", HERE, "-B", build,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    step(["cmake", "--build", build, "--target", "perfbench",
          "-j", str(min(4, os.cpu_count() or 1))])
    cmd = [os.path.join(build, "perfbench")] + sys.argv[1:]
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
