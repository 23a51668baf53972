#!/usr/bin/env python3
"""Build and run the HDFace benchmark.

    python3 hdbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Configures and builds hdbench/ (which compiles
the detector libraries from src/) into $CARGO_TARGET_DIR/hdbench, or
.bench_build/hdbench when that variable is unset, then runs one workload.
Build output goes to stderr; the benchmark's stdout passes through, and its
last line is the JSON result. Exits non-zero, without a result, when the
build fails; with the benchmark's own status otherwise.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(target), "hdbench")


def jobs():
    return str(max(1, len(os.sched_getaffinity(0))))


def build(out):
    subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "--target", "hdbench", "-j", jobs()],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "hdbench")


def commit():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    try:
        binary = build(build_dir())
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"hdbench: build failed: {err}", file=sys.stderr)
        return 3
    sys.stdout.flush()
    try:
        done = subprocess.run([binary, *sys.argv[1:], "--commit", commit()],
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"hdbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
