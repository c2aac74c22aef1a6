#!/usr/bin/env python3
"""Runs one workload of the end-to-end benchmark and prints its metrics.

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 30 --trace 0

Builds perfbench_driver (Release) into .bench_build/ at the repository root,
runs the workload, and prints a detail line (workload, seed, sample counts)
followed, as the last line, by the result object with the keys `correct`,
`attempted`, `failed` and `metrics`. `--trace 0` reports the end-to-end
metrics, `--trace 1` the per-layer ones. Build output goes to stderr. Exits
non-zero without a result when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
EXPECTED = os.path.join(HERE, "expected_rows.tsv")

sys.path.insert(0, HERE)
import metrics  # noqa: E402


def build():
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench_driver",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "perfbench_driver")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=metrics.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    try:
        driver = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    try:
        run = subprocess.run(
            [driver, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--expected", EXPECTED],
            stdout=subprocess.PIPE, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        print("perfbench: driver timed out", file=sys.stderr)
        return 1
    if run.returncode != 0:
        return run.returncode if run.returncode > 0 else 1
    result, detail = metrics.result(json.loads(run.stdout.splitlines()[-1]))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
