#!/usr/bin/env python3
"""Builds and runs the perfbench benchmark from the repository root.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Builds two binaries with cargo (offline): a release build for untraced
runs and a `trace`-feature build (profile `traced`) for traced runs, both
under $CARGO_TARGET_DIR (default `.bench_build`). It then runs the one the
`--trace` flag selects, with CL_THREADS=1: single-threaded limb kernels
(the serve-mix server then runs one worker per core), so compute threads
never exceed the cores. The last line of standard output is the
run's JSON result. `--workload all` runs the four workloads one after
another, each in its own process.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["deep-boot", "lola-infer", "serve-mix", "sim-suite"]
MANIFEST = os.path.join("perfbench", "Cargo.toml")
# One run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def build(target_dir, traced):
    profile = ["--profile", "traced", "--features", "trace"] if traced else ["--release"]
    cmd = ["cargo", "build", "--offline", "--quiet", "--manifest-path", MANIFEST] + profile
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    return subprocess.run(cmd, env=env, stdout=sys.stderr).returncode == 0


def commit_id():
    """The checked-out commit, when the checkout is a git repository."""
    if not os.path.isdir(".git"):
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    # Both builds on every run: the first builds, later ones only check,
    # so no traced run ever pays for a build.
    if not (build(target_dir, traced=False) and build(target_dir, traced=True)):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target_dir, "traced" if args.trace else "release", "perfbench")
    out_dir = os.path.join(target_dir, "perfbench-out")
    commit = commit_id()

    status = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        env = dict(os.environ, CL_THREADS="1")
        cmd = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", out_dir, "--commit", commit]
        try:
            run = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
            return 1
        status = status or run.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
