#!/usr/bin/env python3
# Copyright 2026 The LTAM Authors.
"""End-to-end benchmark of ltam_serve.

Builds ltam_serve and the load driver from this source tree (Release, under
$CARGO_TARGET_DIR or .bench_build), then runs one workload:

    python3 perfbench/run.py --workload durable_ingest --seed 1 --seconds 20 --trace 0

Workloads: durable_ingest, read_mix (see src/workload.h).
--seed picks the world and the arrival schedule. Seed 1 is the default the
benchmark was tuned on; seed 7919 is the holdout a performance claim must
also pass on.

The last line of stdout is one JSON object:
    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}
with the end-to-end metrics (--trace 0) or the per-layer metrics and the
tracing overhead (--trace 1). A run whose answers disagree with the
in-process reference exits 1 with "correct": false and no metrics; a build
failure exits 1 without a result line.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("durable_ingest", "read_mix")
DEFAULT_SEED = 1
HOLDOUT_SEED = 7919
# Leaves the driver's own 180 s limit a margin for the build check.
RUN_TIMEOUT_S = 170


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build(build_dir):
    """Configures and builds the two binaries (a no-op when up to date);
    output goes to stderr only on failure, so stdout stays the driver's."""
    steps = [["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "-j", "4", "--target",
              "ltam_serve", "ltam_perfbench"]]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-8000:])
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    # Compilers and the driver keep their temporary files in the checkout.
    tmp_dir = os.path.join(target_dir(), "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    os.environ["TMPDIR"] = tmp_dir
    build_dir = os.path.join(target_dir(), "perfbench")
    if not build(build_dir):
        return 1
    work_dir = os.path.join(target_dir(), "perfbench-runs", "%s-seed%d-trace%d"
                            % (args.workload, args.seed, args.trace))
    cmd = [os.path.join(build_dir, "ltam_perfbench"),
           "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%d" % args.seconds, "--trace=%d" % args.trace,
           "--serve=" + os.path.join(build_dir, "ltam", "examples",
                                     "ltam_serve"),
           "--work-dir=" + work_dir]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        # The driver's servers die with it (PR_SET_PDEATHSIG).
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
