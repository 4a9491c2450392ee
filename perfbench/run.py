#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload offload|hostseq|serve|all \
        --seed N --seconds S --trace 0|1

Builds the `perfbench` package in release mode (into $CARGO_TARGET_DIR,
or perfbench/target when it is unset), then runs the workload. Every
metric is printed with its unit and sample count; the last line of
standard output is the JSON result. Compiled kernels and JIT caches go
to perfbench/work, which is removed again at the end. If the build or
the run fails, the script exits non-zero without printing a result.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run measures --seconds plus set-up and at most one closed-loop cycle;
# anything slower is a hang.
RUN_TIMEOUT_S = 170
WORKLOADS = ["offload", "hostseq", "serve"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"],
                    help="`all` runs the three workloads one after the other")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target")))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, stdout=sys.stderr, env=dict(os.environ, CARGO_TARGET_DIR=target),
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    for workload in workloads:
        code = run(target, workload, args)
        if code != 0:
            return code
    return 0


def run(target, workload, args):
    """Run one workload; forward its output only if it succeeded."""
    work = os.path.join(HERE, "work")
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work", work, "--root", ROOT,
    ]
    # Everything the system writes through the temp dir stays in the checkout.
    env = dict(os.environ, TMPDIR=tmp)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        print(f"perfbench: {workload} failed with code {proc.returncode}", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0

if __name__ == "__main__":
    sys.exit(main())
