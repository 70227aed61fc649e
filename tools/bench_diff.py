#!/usr/bin/env python3
"""Compare a committed servebench record against BENCHMARK.json's bounds.

    python3 tools/bench_diff.py BENCH_18.json
    python3 tools/bench_diff.py BENCH_18.json --benchmark BENCHMARK.json

A record holds, per workload, the servebench result lines of a parent
and a change build, run as alternating pairs:

    {"workloads": {"churn": {
        "parent": [<result>, ...], "change": [<result>, ...],
        "parent_traced": [<result>, ...], "change_traced": [<result>, ...]
    }}}

where each <result> is the JSON line servebench/run.py prints last.
For every workload the tool prints each end-to-end metric's median on
both sides, the relative change, the number of pairs (runs matched by
position) the change won, and the spread of the parent's runs (the
distance between their quartiles), and flags a move in the worse
direction beyond the metric's bound. From the traced runs it prints
the per-layer medians and names the millisecond stage that moved most.
It also warns, without changing the exit status, about any run whose
rps exceeds the driver's outcome reserve: past that rate the driver
reallocates its outcome vector, and that run's peak_rss_mb counts it.
Exit status: 0 when nothing is flagged, 1 when a metric regressed past
its bound or a run failed its output check, 2 on a malformed input.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Outcome slots the servebench driver reserves per second of a
# closed-loop window (kClosedReserve in servebench/driver.cc).
OUTCOME_RESERVE_RPS = 30000.0


def values(results, name):
    """The metric's value in every result that reports it."""
    return [r["metrics"][name]["value"] for r in results
            if name in r.get("metrics", {})]


def relative(before, after):
    return (after - before) / before if before else 0.0


def regressed(spec, before, after):
    """True when the metric moved the worse way by more than its bound."""
    rel = relative(before, after)
    worse = -rel if spec["better"] == "higher" else rel
    return worse > spec.get("bound", float("inf"))


def spread(runs):
    """Distance between the quartiles of @p runs (0 below two runs)."""
    if len(runs) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(runs, n=4)
    return q3 - q1


def compare(title, parent, change, specs):
    """Print the medians of every metric both sides report; return them."""
    rows = []
    both = [(spec, values(parent, spec["name"]), values(change, spec["name"]))
            for spec in specs]
    both = [(spec, before, after) for spec, before, after in both
            if before and after]
    if both:
        print("  %-28s %12s %12s %9s %6s %10s" % (
            title, "parent", "change", "change%", "won", "parent IQR"))
    for spec, before, after in both:
        higher = spec["better"] == "higher"
        won = sum(1 for b, a in zip(before, after)
                  if (a > b if higher else a < b))
        row = (spec, statistics.median(before), statistics.median(after))
        rows.append(row)
        mark = ""
        if regressed(*row):
            mark = "  WORSE than bound %.0f%%" % (100 * spec["bound"])
        print("  %-28s %12.4g %12.4g %+8.1f%% %2d/%-3d %10.4g%s" % (
            spec["name"], row[1], row[2], 100 * relative(row[1], row[2]),
            won, min(len(before), len(after)), spread(before), mark))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("record")
    parser.add_argument("--benchmark",
                        default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args()
    try:
        with open(args.benchmark) as f:
            bench = json.load(f)
        with open(args.record) as f:
            record = json.load(f)
        workloads = record["workloads"]
    except (OSError, ValueError, KeyError) as e:
        print("bench_diff: cannot read input: %s" % e, file=sys.stderr)
        return 2

    failures = []
    for workload, runs in sorted(workloads.items()):
        parent, change = runs.get("parent", []), runs.get("change", [])
        print("%s: %d parent / %d change runs" % (
            workload, len(parent), len(change)))
        for side, results in (("parent", parent), ("change", change),
                              ("parent_traced", runs.get("parent_traced", [])),
                              ("change_traced", runs.get("change_traced", []))):
            bad = sum(1 for r in results if not r.get("correct", False))
            if bad:
                failures.append("%s: %d %s runs failed their checks"
                                % (workload, bad, side))
            for i, rps in enumerate(values(results, "rps")):
                if rps > OUTCOME_RESERVE_RPS:
                    print("  WARNING: %s run %d reached %.0f req/s, above "
                          "the driver's %.0f/s outcome reserve; its "
                          "peak_rss_mb counts a reallocated outcome vector"
                          % (side, i, rps, OUTCOME_RESERVE_RPS))
        for spec, before, after in compare("end to end", parent, change,
                                           bench["end_to_end"]):
            if regressed(spec, before, after):
                failures.append("%s: %s" % (workload, spec["name"]))

        layers = compare("per layer (traced)",
                         runs.get("parent_traced", []),
                         runs.get("change_traced", []),
                         bench["per_layer"])
        ms = [(abs(after - before), spec["name"], before, after)
              for spec, before, after in layers if spec["unit"] == "ms"]
        if ms:
            _, stage, before, after = max(ms)
            print("  largest ms move: %s %.4g -> %.4g ms" % (
                stage, before, after))
        print()

    for failure in failures:
        print("FLAGGED: " + failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
