#!/usr/bin/env python3
"""Builds and runs the ISPN simulator benchmark (perfbench).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first run configures and builds perfbench/ (the simulator library from
src/ plus the benchmark) in $CARGO_TARGET_DIR/perfbench, or in
.bench_build/perfbench when that variable is unset; later runs rebuild only
what changed.  Build output goes to stderr.  The benchmark's stdout is
forwarded: a machine fingerprint line, then the result as the last line.
Each result is also appended, with its fingerprint, to results.jsonl in the
build directory.  Traced runs write their spans there as Chrome trace JSON.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not (ROOT / "src").is_dir():
        fail(f"no simulator sources at {ROOT / 'src'}")
    if not (build_dir / "CMakeCache.txt").exists():
        configure = subprocess.run(
            ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr, check=False)
        if configure.returncode != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    made = subprocess.run(
        ["cmake", "--build", str(build_dir), "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr, check=False)
    if made.returncode != 0:
        fail("build failed")
    return build_dir / "perfbench"


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, check=False)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    binary = build(build_dir)

    try:
        run = subprocess.run(
            [str(binary), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--git-sha", git_sha(),
             "--out-dir", str(build_dir)],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
            check=False)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        fail(f"benchmark exited with code {run.returncode}")

    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        fingerprint = json.loads(lines[0])["fingerprint"]
    except (IndexError, KeyError, ValueError):
        fail("benchmark printed no result")
    if set(result) != RESULT_KEYS:
        fail(f"malformed result keys {sorted(result)}")

    with open(build_dir / "results.jsonl", "a", encoding="utf-8") as log:
        log.write(json.dumps({"fingerprint": fingerprint, "result": result})
                  + "\n")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
