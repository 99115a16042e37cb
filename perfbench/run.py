#!/usr/bin/env python3
"""Builds and runs the repository benchmark (bccbench).

Run from the repository root:

    python3 perfbench/run.py --workload des_table1 --seed 1 --seconds 30 --trace 0

The benchmark is compiled from the sources in the checkout into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then run with
the same arguments. Build output goes to stderr; the benchmark's stdout is
passed through, and its last line is one JSON object with the keys
correct, attempted, failed and metrics. That line is checked against
BENCHMARK.json: with --trace 0 it must carry exactly the end_to_end
metrics, with --trace 1 exactly the per_layer metrics, each with its unit.

Exit status: the benchmark's own (1 when a correctness gate fails), 2 for
bad arguments or a missing source tree, 3 when the build fails or the
result line does not match BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("des_table1", "des_uplink_pooled", "net_table1")


def fail(code, message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build(root, build_dir):
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "bccbench", "-j",
                  str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            fail(3, "build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "bccbench")


def check_result(line, spec, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail(3, "last output line is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(3, "result keys differ from correct/attempted/failed/metrics")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != wanted:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        fail(3, f"metrics differ from BENCHMARK.json (missing {missing}, extra {extra}, "
                "or a unit differs)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--inject-mismatch", action="store_true",
                        help="give the digest gate a wrong reference; the run must fail")
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail(2, "no library sources under ./src; run from the repository root")
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    binary = build(root, build_dir)
    run_dir = os.path.join(build_dir, "run")
    os.makedirs(run_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--run-dir", run_dir]
    if args.inject_mismatch:
        cmd.append("--inject-mismatch")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0:
        sys.exit(proc.returncode)
    if not lines:
        fail(3, "benchmark printed no result")
    check_result(lines[-1], spec, args.trace == 1)


if __name__ == "__main__":
    main()
