#!/usr/bin/env python3
"""Runs one workload of the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Builds the harness out of tree (Release) on
first use, into $CARGO_TARGET_DIR or .bench_build, then runs it; the last
line of stdout is the JSON result.  Build output goes to stderr.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve-mris-overload", "serve-pq-paced", "batch-lineup")


def build(build_dir, env):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"], env=env,
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4"], env=env,
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "mris_perfbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    p.add_argument("--scale", type=float, default=1.0,
                   help="multiplies job counts (the self-test runs tiny)")
    p.add_argument("--corrupt-expected-checksum", action="store_true",
                   help="make the checksum gates fail (self-test only)")
    args = p.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: the repository sources (src/) are missing next to "
              "perfbench/; run from a full checkout", file=sys.stderr)
        return 2
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                             ".bench_build", "perfbench")
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    try:
        binary = build(build_dir, env)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", os.path.join(ROOT, ".bench_work", args.workload),
           "--scale", str(args.scale)]
    if args.corrupt_expected_checksum:
        cmd.append("--corrupt-expected-checksum")
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, timeout=170).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded 170 s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
