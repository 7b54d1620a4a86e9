#!/usr/bin/env python3
"""Builds and runs the end-to-end TQL serving benchmark.

    python3 tqlbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 tqlbench/run.py --repeat <N> [--workload <name>...] [--seconds <s>]

Run from the repository root. The first form builds the benchmark (a
standalone CMake project over ../src) into .bench_build/ if needed, runs
one workload, and passes its output and exit code through; the last line
of its output is the JSON result. The second form runs each workload N
times with seeds 1..N and prints the median and quartiles of every
end-to-end metric.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["dashboard_reads", "durable_writes", "restart_replay"]


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build():
    out = build_dir()
    binary = os.path.join(out, "tqlbench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        r = subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    r = subprocess.run(["cmake", "--build", out, "-j", jobs],
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0 or not os.path.exists(binary):
        return None
    return binary


def repeat(binary, args):
    n = int(args[args.index("--repeat") + 1])
    seconds = args[args.index("--seconds") + 1] if "--seconds" in args else "10"
    names = [args[i + 1] for i, a in enumerate(args) if a == "--workload"] or WORKLOADS
    status = 0
    for name in names:
        values = {}
        for seed in range(1, n + 1):
            r = subprocess.run([binary, "--workload", name, "--seed", str(seed),
                                "--seconds", seconds, "--trace", "0"],
                               stdout=subprocess.PIPE, text=True)
            if r.returncode != 0:
                print(f"{name} seed {seed}: exit {r.returncode}")
                status = 1
                continue
            result = json.loads(r.stdout.strip().splitlines()[-1])
            for metric, vu in result["metrics"].items():
                values.setdefault(metric, ([], vu["unit"]))[0].append(vu["value"])
        print(f"{name}: {n} runs")
        for metric, (vs, unit) in values.items():
            if len(vs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            print(f"  {metric:26s} median {med:14.6g} {unit:14s} q1 {q1:12.6g} "
                  f"q3 {q3:12.6g} spread {(q3 - q1) / med if med else 0:.4f}")
            print("    runs: " + " ".join(f"{v:.6g}" for v in vs))
    return status


def main():
    args = sys.argv[1:]
    binary = build()
    if binary is None:
        print("tqlbench: build failed", file=sys.stderr)
        return 1
    if "--repeat" in args:
        return repeat(binary, args)
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
