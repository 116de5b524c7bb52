#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name|all> --seed <n> \
        --seconds <s> --trace <0|1>

Workloads: lookup_uniform, mixed_zipf, serve_read_mostly,
serve_blocking_rw (or all). The first call configures and builds
perfbench/ (CMake, Release) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later calls only rebuild what changed. The
benchmark binary's output is passed through; its last line is the JSON
result. Exits non-zero if the build fails, the binary fails or times out,
or a result disagreed with the oracle.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        result = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                stderr=sys.stderr)
        if result.returncode != 0:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not build(build_dir):
        return 1
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)

    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--trace_out", trace_dir]
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1
    sys.stdout.write(out)
    if proc.returncode != 0:
        print("perfbench: benchmark exited with %d" % proc.returncode,
              file=sys.stderr)
        return 1
    try:
        json.loads(out.rstrip("\n").split("\n")[-1])
    except json.JSONDecodeError:
        print("perfbench: no JSON result line", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
