#!/usr/bin/env python3
"""Paper-grid benchmark entry point.

Builds gridbench_main from source (the repository's CMake project, Release),
runs one workload in its own process and prints its output. The last line
of standard output is the JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage (from the repository root):

    python3 gridbench/run.py --workload table4_paper --seed 1 --seconds 30 --trace 0

The build goes to $CARGO_TARGET_DIR when it is set, else .bench_build, both
relative to the repository root. See gridbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("table4_paper", "inception_grid", "serve_open")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(message):
    print("gridbench: " + message, file=sys.stderr)
    sys.exit(1)


def run(command, timeout):
    """Runs a command to completion (killed and reaped on timeout)."""
    try:
        return subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(command))


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        fail("no CMakeLists.txt at the repository root; nothing to build")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configured = run(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
        if configured.returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    built = run(["cmake", "--build", build_dir, "--target", "gridbench_main",
                 "-j", jobs], BUILD_TIMEOUT_S)
    if built.returncode != 0:
        fail("build failed")
    binary = os.path.join(build_dir, "gridbench_main")
    if not os.path.isfile(binary):
        fail("build produced no gridbench_main")
    return binary


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    section = spec["per_layer" if trace else "end_to_end"]
    return {entry["name"]: entry["unit"] for entry in section}


def pinned_digest(workload, seed):
    with open(os.path.join(HERE, "digests.json")) as handle:
        digests = json.load(handle)
    return digests.get(workload, {}).get(str(seed), "")


def main():
    parser = argparse.ArgumentParser(
        description="Run one paper-grid benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()  # exits with status 2 on unknown arguments
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        parser.error("--seed must be >= 0 and --seconds in [1, 3600]")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                             ".bench_build")
    expected = expected_metrics(args.trace)
    binary = build(build_dir)
    out_dir = os.path.join(build_dir, "runs")
    os.makedirs(out_dir, exist_ok=True)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", out_dir]
    digest = pinned_digest(args.workload, args.seed)
    if digest:
        command += ["--expect-digest", digest]
    result = run(command, RUN_TIMEOUT_S)
    lines = result.stdout.rstrip("\n").split("\n")
    if result.returncode != 0:
        sys.stderr.write(result.stdout)
        fail("gridbench_main exited with status %d" % result.returncode)
    try:
        final = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(result.stdout)
        fail("gridbench_main printed no JSON result line")
    reported = {name: entry["unit"] for name, entry in final["metrics"].items()}
    if reported != expected:
        sys.stderr.write(result.stdout)
        fail("metrics differ from BENCHMARK.json: %s" %
             sorted(set(reported.items()) ^ set(expected.items())))
    print("\n".join(lines))


if __name__ == "__main__":
    main()
