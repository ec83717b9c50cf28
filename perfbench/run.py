#!/usr/bin/env python3
"""Repo benchmark for TimeDRL pretraining and embedding serving.

Run from the repository root:

    python3 perfbench/run.py --workload pretrain_long --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py                 # every workload, untraced then traced
    python3 perfbench/run.py --test          # the benchmark's own helper tests

The first call configures and builds the library and the benchmark from
source into .bench_build/ (CMake, Release). One workload run prints a tags
line, one line per metric with unit and sample count, check lines, and as
its last line the result object {"correct", "attempted", "failed",
"metrics"}. The exit code is non-zero when the build fails, a correctness
check fails, or the output does not match BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORK_DIR = os.path.join(BUILD_DIR, "work")
CHILD_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("run from the repository root (BENCHMARK.json not found)")
    with open(path) as f:
        return json.load(f)


def build(target):
    """Configures once, then brings `target` up to date; output goes to a log."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to BENCHMARK.json")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(log_path, "a") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target", target,
                      "-j", "4"])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                fail(f"build step failed: {' '.join(step)} (see {log_path})")
    return os.path.join(BUILD_DIR, target)


def child_env():
    # Library knobs come only from the benchmark: default thread pool,
    # default prefetch depth, auto-selected ISA, tracing off.
    return {k: v for k, v in os.environ.items() if not k.startswith("TIMEDRL_")}


def check_result(line, spec, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail("last output line is not a JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys differ from the expected format")
    declared = spec["per_layer" if trace else "end_to_end"]
    if list(result["metrics"]) != [m["name"] for m in declared]:
        fail("metric names differ from BENCHMARK.json")
    for m in declared:
        if result["metrics"][m["name"]]["unit"] != m["unit"]:
            fail(f"unit of {m['name']} differs from BENCHMARK.json")
    return result


def run_workload(binary, spec, workload, seed, seconds, trace):
    os.makedirs(WORK_DIR, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", WORK_DIR]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=child_env(),
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {CHILD_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload} printed nothing (exit code {proc.returncode})")
    print("\n".join(lines[:-1]))
    result = check_result(lines[-1], spec, trace)
    return proc.returncode, result, lines[-1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--test", action="store_true",
                        help="build and run the helper tests")
    args = parser.parse_args()

    spec = load_spec()
    if args.test:
        sys.exit(subprocess.run([build("perfbench_test")]).returncode)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        fail(f"unknown workload {args.workload!r}; choose from {names}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    binary = build("perfbench")

    if args.workload is not None:
        trace = bool(args.trace)
        code, result, line = run_workload(binary, spec, args.workload,
                                          args.seed, seconds, trace)
        print(line)
        sys.exit(code if code else (0 if result["correct"] else 1))

    # Every workload: untraced (end-to-end), then traced (per-layer).
    worst = 0
    for workload in names:
        for trace in ([bool(args.trace)] if args.trace is not None
                      else [False, True]):
            print(f"== {workload} trace={int(trace)}")
            code, result, line = run_workload(binary, spec, workload,
                                              args.seed, seconds, trace)
            print(line)
            worst = max(worst, code, 0 if result["correct"] else 1)
    sys.exit(worst)


if __name__ == "__main__":
    main()
