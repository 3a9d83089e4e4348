#!/usr/bin/env python3
"""End-to-end + per-layer benchmark for dkc.

Run from the repository root:

    python3 bench_e2e/run.py --workload batch1-serial --seed 1 --seconds 40 --trace 0

Builds the library and the harness (bench_e2e/dkc_e2e.cc) from source into
$CARGO_TARGET_DIR (default .bench_build), runs one workload on
inputs generated from --seed, and relays the harness's result: the last
stdout line is one JSON object with `correct`, `attempted`, `failed` and
`metrics` (end-to-end metrics with --trace 0, per-layer ones with --trace 1).
Build output goes to stderr. Exits non-zero, printing no result, when the
build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("batch1-serial", "batch64-pool4")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure once, then bring the harness up to date. True on success."""
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        configure = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            return False
    compile_ = subprocess.run(
        ["cmake", "--build", build_dir, "--target", "dkc_e2e", "-j", "4"],
        stdout=sys.stderr, stderr=sys.stderr)
    return compile_.returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                              ".bench_build")
    build_dir = os.path.join(out_dir, "dkc_e2e")
    if not build(build_dir):
        print("bench_e2e: build failed", file=sys.stderr)
        return 1

    workdir = os.path.join(out_dir, "work-%d" % os.getpid())
    command = [
        os.path.join(build_dir, "dkc_e2e"),
        "--workload=" + args.workload,
        "--seed=%d" % args.seed,
        "--seconds=%g" % args.seconds,
        "--trace=%d" % args.trace,
        "--workdir=" + workdir,
    ]
    if args.trace:
        command.append("--spans-out=" + os.path.join(
            out_dir, "spans-%s-%d.json" % (args.workload, args.seed)))
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE,
                             stderr=sys.stderr, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("bench_e2e: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        print("bench_e2e: harness exited with %d" % run.returncode,
              file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
