#!/usr/bin/env python3
"""Steadiness tool: runs every workload repeatedly and reports, for each
metric, the median, the interquartile range and the spread relative to
the bound BENCHMARK.json fixes for it.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]
        [--workloads offline,serve,stream-ingest] [--trace]
        [--save set1.json] [--against set0.json]

Each run uses another seed (first-seed, first-seed+1, ...). The spread
of a metric is (q3 - q1) / median with the quartiles of
statistics.quantiles(values, n=4). A bounded end-to-end metric reads
"steady" below a third of its bound, "ok" below the bound and "NOISY"
above it (setup_s is reported but not judged by spread). --save writes
the raw values; --against compares this set's medians with a saved set
and flags a metric whose median got worse by more than its bound.
--trace runs the traced mode and summarises the per-layer metrics,
which have no bound. Exits non-zero on a failed run, an incorrect
result, a NOISY metric or a drift beyond a bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    if run.returncode != 0:
        return None
    return json.loads(run.stdout.strip().split("\n")[-1])


def spread(values):
    median = statistics.median(values)
    if len(values) < 2:
        return median, 0.0, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q3 - q1, (q3 - q1) / median if median else float("inf")


def worse_by(old, new, better):
    """Share by which `new` is worse than `old` (negative: better)."""
    if old == 0:
        return 0.0
    change = (new - old) / old
    return -change if better == "higher" else change


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--save")
    parser.add_argument("--against")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in spec["workloads"]])
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    previous = {}
    if args.against:
        with open(args.against) as f:
            previous = json.load(f)

    bad = False
    values = {}
    for workload in workloads:
        per_metric = {m["name"]: [] for m in metrics}
        for i in range(args.runs):
            seed = args.first_seed + i
            result = run_once(workload, seed, spec["run_seconds"], args.trace)
            if result is None or not result["correct"] or result["failed"]:
                print("%s seed %d: FAILED %s" % (workload, seed, result and
                      {k: result[k] for k in ("correct", "attempted",
                                              "failed")}))
                bad = True
                continue
            for name, metric in result["metrics"].items():
                per_metric[name].append(metric["value"])
            print("%s seed %d: %s" % (workload, seed, ", ".join(
                "%s=%.6g" % (m["name"], result["metrics"][m["name"]]["value"])
                for m in spec["end_to_end"] if not args.trace)), flush=True)
        values[workload] = per_metric

        print("\n%-14s %-36s %14s %12s %8s %7s %7s  %s" % (
            "workload", "metric", "median", "iqr", "spread", "bound",
            "sp/bnd", "verdict"))
        for m in metrics:
            vals = per_metric[m["name"]]
            if not vals:
                continue
            median, iqr, sp = spread(vals)
            bound = m.get("bound")
            verdict, ratio = "", ""
            if bound is not None:
                ratio = "%.2f" % (sp / bound)
                if m["name"] == "setup_s":
                    verdict = "(not judged by spread)"
                elif sp < bound / 3:
                    verdict = "steady"
                elif sp < bound:
                    verdict = "ok"
                else:
                    verdict, bad = "NOISY", True
                old = previous.get(workload, {}).get(m["name"])
                if old:
                    drift = worse_by(statistics.median(old), median,
                                     m["better"])
                    verdict += "  vs saved: %+.1f%%" % (100 * drift)
                    if drift > bound:
                        verdict += " DRIFT"
                        bad = True
            print("%-14s %-36s %14.6g %12.4g %7.1f%% %7s %7s  %s" % (
                workload, m["name"], median, iqr, 100 * sp,
                "" if bound is None else "%.2f" % bound, ratio, verdict))
        print(flush=True)

    if args.save:
        with open(args.save, "w") as f:
            json.dump(values, f, indent=1)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
