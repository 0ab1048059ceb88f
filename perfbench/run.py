#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload geo_batch --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

The benchmark and the library are built with CMake into
.bench_build/perfbench (configured once, rebuilt incrementally on every
call). The benchmark's report goes to standard output; its last line is the
JSON result. Build logs stay in the build directory. Exits non-zero,
without a result line, when the library sources are missing, the build
fails, the benchmark binary fails or its result does not name exactly the
metrics BENCHMARK.json lists.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORK_ROOT = os.path.join(BUILD_ROOT, "work")
# The binary must finish well inside the 180 s a run may take.
BINARY_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_logged(command, log_name):
    """Runs a build step with its output in a log file; fails on error."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, log_name)
    with open(log_path, "w") as log:
        code = subprocess.call(command, cwd=ROOT, stdout=log,
                               stderr=subprocess.STDOUT)
    if code != 0:
        with open(log_path) as log:
            sys.stderr.write(log.read()[-4000:])
        fail("build step failed: " + " ".join(command))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_logged(configure, "configure.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", BUILD_DIR, "-j", jobs], "build.log")


def expected_metrics(trace):
    """Metric names BENCHMARK.json lists for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        build()
        sys.exit(subprocess.call(
            [os.path.join(BUILD_DIR, "perfbench_selftest"),
             os.path.join(WORK_ROOT, "selftest")], cwd=ROOT))

    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    build()

    work_dir = os.path.join(WORK_ROOT, args.workload)
    command = [os.path.join(BUILD_DIR, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work", work_dir]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within %d s" % BINARY_TIMEOUT_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    output = done.stdout.decode()
    if done.returncode != 0:
        sys.stderr.write(output)
        fail("benchmark exited with code %d" % done.returncode)

    lines = output.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(output)
        fail("benchmark printed no JSON result line")
    names = expected_metrics(args.trace == 1)
    if names is not None and sorted(result["metrics"]) != sorted(names):
        sys.stderr.write(output)
        fail("benchmark metrics differ from BENCHMARK.json")
    sys.stdout.write(output if output.endswith("\n") else output + "\n")


if __name__ == "__main__":
    main()
