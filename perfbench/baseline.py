#!/usr/bin/env python3
"""Run every workload over several seeds and record medians and spreads.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

Each seed runs all workloads one after another, untraced, with
BENCHMARK.json's run_seconds, as `run.py --workload all` does. For each
workload and end-to-end metric the output holds every value, the
median, the quartiles as `statistics.quantiles(n=4)` gives them, and the
spread: the distance between the quartiles as a share of the median.
"""

import argparse
import json
import pathlib
import statistics
import sys

import run


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"),
                        help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    seconds = run.SPEC["run_seconds"]
    values = {name: {spec["name"]: [] for spec in run.SPEC["end_to_end"]}
              for name in run.WORKLOADS}
    failed = dict.fromkeys(run.WORKLOADS, 0)
    unfinished = dict.fromkeys(run.WORKLOADS, 0)
    for seed in args.seeds:
        results, _ = run.run_all(seed, seconds)
        for name in run.WORKLOADS:
            if name not in results:
                unfinished[name] += 1
                continue
            result = results[name]
            failed[name] += result["failed"]
            for metric, entry in result["metrics"].items():
                values[name][metric].append(entry["value"])
    record = {"seeds": args.seeds, "run_seconds": seconds,
              "environment": run.environment(), "workloads": {}}
    for name, by_metric in values.items():
        summary = {"failed_units": failed[name],
                   "unfinished_runs": unfinished[name]}
        for metric, vals in by_metric.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            summary[metric] = {"median": statistics.median(vals),
                               "q1": q1, "q3": q3,
                               "spread": (q3 - q1) / statistics.median(vals),
                               "values": vals}
            print(f"{name} {metric}: median {summary[metric]['median']:.6g}, "
                  f"spread {summary[metric]['spread']:.3f}", flush=True)
        record["workloads"][name] = summary
    pathlib.Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
