#!/usr/bin/env python3
"""Builds and runs the Solros end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload fs_cold_rw --seed 1 --seconds 15 --trace 0

Builds perfbench/ (which compiles the simulator from ../src) into the
directory named by CARGO_TARGET_DIR, or .bench_build, then runs the benchmark
binary with the same flags. Build output goes to stderr; the binary's stdout
passes through, so the last line of stdout is its JSON result. Exits non-zero
without printing a result when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("fs_cold_rw", "fs_hot_rpc", "net_storm", "net_echo_open")


def build(root, bench_dir):
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_dir, "perfbench")
    configure = ["cmake", "-S", bench_dir, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    # Keep the compiler's temporary files inside the build tree.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(configure, check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", "4"], check=True, stdout=sys.stderr, env=env)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    try:
        binary = build(root, bench_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench build failed: {err}", file=sys.stderr)
        return 1

    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.PIPE, text=True, check=False)
    sys.stdout.write(proc.stdout)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    json.loads(lines[-1])  # the result line must parse
    return 0


if __name__ == "__main__":
    sys.exit(main())
