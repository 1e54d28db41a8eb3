#!/usr/bin/env python3
"""Builds mrlr_benchmark from this checkout and runs it.

    python3 benchmark/run.py --workload NAME --seed N --seconds T --trace 0|1
                             [--out FILE]

The benchmark is configured (CMake, Release) into .bench_build/ at the
repository root and rebuilt incrementally on every call. Build output goes
to stderr; the benchmark's stdout passes through unchanged, so its last
line is the JSON result. The results file defaults to
.bench_build/results/<workload>-seed<N>-trace<T>.json.

Exit status: the benchmark's (0 when every check passed), or 3 when the
build fails -- for instance in a directory without the library sources.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"


def build():
    configured = (BUILD / "CMakeCache.txt").exists() and any(
        (BUILD / f).exists() for f in ("Makefile", "build.ninja"))
    steps = [] if configured else [[
        "cmake", "-S", str(ROOT / "benchmark"), "-B", str(BUILD),
        "-DCMAKE_BUILD_TYPE=Release"]]
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "mrlr_benchmark", "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--out")
    args = ap.parse_args()

    if not build():
        print("run.py: building mrlr_benchmark failed", file=sys.stderr)
        return 3
    out = Path(args.out) if args.out else (
        BUILD / "results" /
        f"{args.workload or 'all'}-seed{args.seed}-trace{args.trace}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(BUILD / "mrlr_benchmark"), "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out", str(out)]
    if args.workload:
        cmd += ["--workload", args.workload]
    rc = subprocess.run(cmd).returncode
    return rc if rc >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())
