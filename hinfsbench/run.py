#!/usr/bin/env python3
"""Builds and runs the HiNFS end-to-end benchmark.

    python3 hinfsbench/run.py --workload fileserver|varmail|wire \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
benchmark (CMake, Release) into $CARGO_TARGET_DIR, or .bench_build when that
is unset; later runs only rebuild what changed. Build output goes to stderr,
so the last line of stdout is always the benchmark's JSON result. The exit
code is the benchmark's: non-zero when a correctness check fails.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fileserver", "varmail", "wire")


def die(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "hinfsbench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            die(f"build step failed ({proc.returncode}): {' '.join(cmd)}")
    return build_dir / "hinfsbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if args.seconds < 1 or args.seed < 0:
        die("--seconds must be >= 1 and --seed >= 0")

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    binary = build(build_dir)

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", ".bench_run"]
    proc = subprocess.run(cmd, cwd=ROOT)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
