#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload vm-hot|vm-thrash|serve-ckpt \
        --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (the dsa library from src/ plus the
benchmark binary) into $CARGO_TARGET_DIR, default .bench_build, then runs
one workload.  Build output goes to stderr; stdout carries the benchmark's
lines, the last of which is its JSON result.  The exit code is the
benchmark's: non-zero when the build fails or a correctness gate fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading

WORKLOADS = ("vm-hot", "vm-thrash", "serve-ckpt")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    source = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no dsa sources under src/ in the current directory")
    # A build directory configured for another source tree (a moved or
    # copied checkout) cannot be reused; configure it afresh.
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            home = next((line.split("=", 1)[1].strip() for line in f
                         if line.startswith("CMAKE_HOME_DIRECTORY:")), None)
        if home is None or os.path.realpath(home) != os.path.realpath(source):
            os.remove(cache)
            shutil.rmtree(os.path.join(build_dir, "CMakeFiles"), ignore_errors=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", source, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in [1, 60]")

    root = os.getcwd()
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(root, build_dir)

    # Spools, output trees and checkpoint stores live inside the build
    # directory, so the benchmark writes nowhere outside the checkout.
    work_dir = os.path.join(build_dir, f"work-{args.workload}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace, "--work-dir", work_dir]
    last = ""
    try:
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as proc:
            # A run that outlives its budget is killed; the with-block waits
            # for it either way.
            watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                for line in proc.stdout:
                    sys.stdout.write(line)
                    sys.stdout.flush()
                    if line.strip():
                        last = line.strip()
            finally:
                watchdog.cancel()
                if proc.poll() is None and sys.exc_info()[0] is not None:
                    proc.kill()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode != 0:
        sys.exit(proc.returncode)
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        fail("the benchmark's last line is not a JSON result")
    if not result.get("correct", False):
        sys.exit(1)


if __name__ == "__main__":
    main()
