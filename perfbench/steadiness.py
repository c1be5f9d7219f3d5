#!/usr/bin/env python3
"""Check that the benchmark is steady enough for its own bounds.

Runs two sets of untraced runs of the same code, alternating which set goes
first at each index, with a different seed for every run. For every
end-to-end metric of every workload it prints each set's median and
quartiles, the spread (Q3 - Q1) / median against the metric's bound from
BENCHMARK.json, and how far the second set's median moved in the worse
direction.

    python3 perfbench/steadiness.py [--workloads plan,execute,spld]
        [--runs 10] [--seconds S] [--first-seed 100]

A metric fails (SPREAD) when a set's spread exceeds its bound, except
setup_s, and fails (SHIFT) when the second median is worse than the first by
more than the bound. That is the rule a benchmark must meet to gate changes:
a metric whose own runs spread wider than its bound cannot tell a regression
from noise. A passing metric whose spread exceeds a third of its bound is
marked "wide": it gates, but with less margin than wanted. Exit status 1
when any metric fails, 2 when a run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d exited %d" % (workload, seed,
                                                     proc.returncode))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError("%s seed %d reported incorrect output"
                           % (workload, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=None,
                    help="comma-separated subset (default: all)")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--first-seed", type=int, default=100)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])

    failed = []
    for workload in workloads:
        sets = [[], []]
        for i in range(args.runs):
            for s in ((0, 1), (1, 0))[i % 2]:
                seed = args.first_seed + 1000 * s + i
                try:
                    sets[s].append(run_once(workload, seed, seconds))
                except RuntimeError as e:
                    print("steadiness: %s" % e, file=sys.stderr)
                    return 2
        print("== %s: %d runs x 2 sets, %g s each" % (workload, args.runs,
                                                    seconds))
        print("%-13s %-4s %12s %12s %12s %8s %6s %8s  %s" % (
            "metric", "set", "q1", "median", "q3", "spread", "bound",
            "shift", "verdict"))
        for name, m in bounds.items():
            stats = [spread([r[name] for r in runs]) for runs in sets]
            worse = (stats[1][1] - stats[0][1]) / stats[0][1]
            if m["better"] == "higher":
                worse = -worse
            widest = max(st[3] for st in stats)
            verdict = "ok"
            if name != "setup_s" and widest > m["bound"] / 3:
                verdict = "wide"
            if name != "setup_s" and widest > m["bound"]:
                verdict = "SPREAD"
            if worse > m["bound"]:
                verdict = "SHIFT"
            if verdict in ("SPREAD", "SHIFT"):
                failed.append("%s/%s" % (workload, name))
            for s, (q1, med, q3, sp) in enumerate(stats):
                print("%-13s %-4s %12.6g %12.6g %12.6g %8.4f %6.2f %8s  %s"
                      % (name, "AB"[s], q1, med, q3, sp, m["bound"],
                         "%+.3f" % worse if s else "",
                         verdict if s else ""))
        sys.stdout.flush()
    print("failed: %s" % (", ".join(failed) if failed else "none"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
