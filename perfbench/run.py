#!/usr/bin/env python3
"""Build and run the pipeline benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
library and the benchmark program from source into .bench_build/; later
runs only re-check the build. The program's report goes to stdout; its
last line is one JSON object with the keys correct, attempted, failed
and metrics. Build output goes to stderr. With --trace 1 the spans of
the run are written to .bench_build/spans/. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH_DIR = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BENCH_DIR, "perfbench")
SPANS_DIR = os.path.join(BENCH_DIR, "spans")
# Compiler scratch files stay inside the checkout too.
TMP_DIR = os.path.join(BENCH_DIR, "tmp")
BINARY = os.path.join(BUILD_DIR, "pipeline_bench")
WORKLOADS = ("dpu-stream", "vpu-leafy", "soc-contended")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    return 1


def build():
    """Configure once, then build incrementally; output to stderr."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        return fail(f"no library sources at {os.path.join(ROOT, 'src')}")
    os.makedirs(TMP_DIR, exist_ok=True)
    env = dict(os.environ, TMPDIR=TMP_DIR)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              env=env, check=False)
        if done.returncode != 0:
            return fail(f"build step failed: {' '.join(step)}")
    return 0


def parse_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return None
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        return fail("--seed must be >= 0 and --seconds > 0")

    if build() != 0:
        return 1

    command = [BINARY, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        command += ["--spans", os.path.join(
            SPANS_DIR, f"{args.workload}-seed{args.seed}.json")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as expired:
        sys.stderr.write(expired.stdout or "")
        return fail(f"benchmark did not finish in {RUN_TIMEOUT_S} s")

    lines = done.stdout.rstrip("\n").split("\n")
    result = parse_result(lines[-1]) if lines else None
    if done.returncode != 0 or result is None:
        sys.stderr.write(done.stdout)
        return fail(f"benchmark exited with code {done.returncode} "
                    "and no result line")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
