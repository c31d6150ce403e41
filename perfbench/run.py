#!/usr/bin/env python3
"""Build and run the wall-clock benchmark of the functional PVFS.

    python3 perfbench/run.py --workload <flash-ckpt|tiled-viz|small-io> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. On first use it configures and builds
perfbench/ (a CMake project that compiles the repository's src/) into
.bench_build/perfbench/, then runs the load generator and passes its
output through. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. With --trace 1 the traced
half of the run is also written to .bench_out/ as Chrome trace-event JSON.

See perfbench/README.md for the workloads and metrics.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "pvfs_perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then bring the binary up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no PVFS sources under {ROOT}/src; run from a full checkout")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "pvfs_perfbench",
                  "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout carries only the result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))
    return BINARY


def run(binary, args, extra=()):
    """Runs the load generator; returns (exit code, stdout lines)."""
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        command += ["--trace-out", os.path.join(
            OUT_DIR, f"{args.workload}-seed{args.seed}.trace.json")]
    command += list(extra)
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    return done.returncode, done.stdout.splitlines()


def parse_result(lines):
    """The JSON object on the last line, or None."""
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return None
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    code, lines = run(build(), args)
    if code != 0 or parse_result(lines) is None:
        for line in lines:
            print(line, file=sys.stderr)
        fail(f"load generator failed (exit code {code})")
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
