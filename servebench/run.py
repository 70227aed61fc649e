#!/usr/bin/env python3
"""Build and run the serving benchmark.

    python3 servebench/run.py --workload hot --seed 1 --seconds 30 --trace 0
    python3 servebench/run.py --workload all --seed 1 --seconds 30

Run from the repository root. The first run configures and builds the
HeteroMap libraries and the driver (Release-with-debug-info) into
.bench_build (or $CARGO_TARGET_DIR, relative to the root); later runs
only rebuild what changed. With --trace 1 the span file goes to
.bench_build/traces/<workload>-seed<seed>.json. The last line of
standard output is the benchmark's JSON result; with --workload all,
the workloads of BENCHMARK.json run in turn and a table of every
metric follows. "trickle" (open loop) runs only when named.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["hot", "churn", "mixed"]
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"))


def build():
    """Configure once, then build the driver; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("servebench: no src/ beside servebench/: nothing to build")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "servebench"),
                      "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "servebench",
                  "-j", "4"])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("servebench: build step failed: " + " ".join(step))
    return os.path.join(out, "servebench")


def run_one(binary, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.json" % (workload, seed))]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("servebench: %s did not finish in %d s"
                 % (workload, RUN_TIMEOUT_S))
    return done.returncode, done.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["trickle", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    binary = build()
    if args.workload != "all":
        code, out = run_one(binary, args.workload, args.seed,
                            args.seconds, args.trace)
        sys.stdout.write(out)
        return code

    worst = 0
    rows = []
    for workload in WORKLOADS:
        code, out = run_one(binary, workload, args.seed, args.seconds,
                            args.trace)
        sys.stderr.write(out)
        worst = max(worst, code)
        lines = out.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        for name, metric in result.get("metrics", {}).items():
            rows.append((workload, name, metric["value"], metric["unit"]))
        rows.append((workload, "correct", result.get("correct"), ""))
    for workload, name, value, unit in rows:
        print("%-8s %-28s %16s %s" % (workload, name, value, unit))
    return worst


if __name__ == "__main__":
    sys.exit(main())
