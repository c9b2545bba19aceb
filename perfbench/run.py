#!/usr/bin/env python3
"""Builds the benchmark from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload serve_read|serve_live|ingest \
        --seed N --seconds S --trace 0|1

Run from the repository root. The build tree is $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); the first run configures and compiles it,
later runs only check it is up to date. Build output goes to stderr, so the
last line on stdout is the benchmark's JSON result. Exits non-zero, without
a result line, when the build or the run fails.
"""

import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(root, target, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build, "-j", jobs, "--target", "perfbench"],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return 1
    command = [os.path.join(build, "perfbench")] + sys.argv[1:] + [
        "--out-dir", build]
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
