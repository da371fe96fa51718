#!/usr/bin/env python3
"""Build mpc-clustering and the benchmark from source, then run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: kcenter-d32, diversity-d4, serving-stream. Build output goes to
standard error; standard output is the benchmark's, whose last line is the
JSON result. Builds land in $CARGO_TARGET_DIR (default `.bench_build`),
relative to the checkout root. Exits with 2, printing no result, when the
checkout has no program to build or the benchmark fails (it refuses to
run when a KCENTER_* variable is set).
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("kcenter-d32", "diversity-d4", "serving-stream")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run(cmd, **kwargs):
    """Runs a command to completion; on interrupt, stops it before leaving."""
    proc = subprocess.Popen(cmd, cwd=ROOT, **kwargs)
    try:
        return proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    for needed in ("Cargo.toml", "Cargo.lock", "src/main.rs", "crates", "shims"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"no {needed} in {ROOT}: not a checkout of the program")

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = (
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "mpc-clustering"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    )
    for cmd in builds:
        if run(cmd, env=env, stdout=sys.stderr) != 0:
            fail(f"build failed: {' '.join(cmd)}")

    bench = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--cli", os.path.join(target, "release", "mpc-clustering"),
        "--data-dir", os.path.join(target, "perfbench-data"),
    ]
    sys.stdout.flush()
    code = run(bench, env=env)
    if code != 0:
        fail(f"benchmark exited with {code}")


if __name__ == "__main__":
    main()
