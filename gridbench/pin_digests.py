#!/usr/bin/env python3
"""Regenerates gridbench/digests.json, the pinned canonical-report digests.

Every grid run compares its canonical report (eval::WriteCanonicalReport
bytes) with the digest pinned here for its (workload, seed); a mismatch
counts every cell of the run as failed. Rerun this only for an intended
numeric change, and record the change in CHANGES.md:

    python3 gridbench/pin_digests.py --seeds 0-20
"""

import argparse
import json
import os
import re
import subprocess

import run as bench

GRID_WORKLOADS = ("table4_paper", "inception_grid")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", required=True,
                        help="inclusive seed range, e.g. 0-20")
    args = parser.parse_args()
    match = re.fullmatch(r"(\d+)-(\d+)", args.seeds)
    if not match:
        parser.error("--seeds must look like 0-20")
    seeds = range(int(match.group(1)), int(match.group(2)) + 1)

    build_dir = os.path.join(bench.ROOT, os.environ.get("CARGO_TARGET_DIR") or
                             ".bench_build")
    binary = bench.build(build_dir)
    out_dir = os.path.join(build_dir, "runs")
    os.makedirs(out_dir, exist_ok=True)
    digests = {}
    for workload in GRID_WORKLOADS:
        for seed in seeds:
            # --seconds 1: the warm-up study and one more give the digest.
            result = subprocess.run(
                [binary, "--workload", workload, "--seed", str(seed),
                 "--seconds", "1", "--trace", "0", "--out-dir", out_dir],
                stdout=subprocess.PIPE, text=True, check=True,
                timeout=bench.RUN_TIMEOUT_S)
            found = re.search(r"canonical report digest ([0-9a-f]{16})",
                              result.stdout)
            last = json.loads(result.stdout.strip().split("\n")[-1])
            if not found or last["failed"] != 0:
                raise SystemExit("%s seed %d: no clean digest" %
                                 (workload, seed))
            digests.setdefault(workload, {})[str(seed)] = found.group(1)
            print(workload, seed, found.group(1), flush=True)
    with open(os.path.join(bench.HERE, "digests.json"), "w") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
