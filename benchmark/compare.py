#!/usr/bin/env python3
"""Compare two result sets of the wall-clock serve benchmark.

    python3 benchmark/compare.py BASE CANDIDATE [--bench BENCHMARK.json]

BASE and CANDIDATE are each a directory (searched recursively) or a list of
files, separated by a comma, holding the JSON records run.sh writes: the
per-workload records (bench-out/<workload>.json, schema mcs.bench.v1) or
merged bench-out/results.json files. Each record is one run; the value of a
metric in a run is the median run.sh reported. Traced records are skipped.

For every workload and end-to-end metric it prints each side's median and
quartiles over its runs and a verdict against the metric's bound from
BENCHMARK.json:

  worse       the candidate's median is worse than the base's by more than
              the bound;
  unresolved  a side's spread (quartile distance / median) exceeds the
              bound, and not every candidate run beats every base run;
  better      every candidate run beats every base run despite a wide
              spread, or the pairs rule holds: the candidate wins at least
              nine tenths of the pairs (i-th base run vs i-th candidate run,
              ties count for neither) and the medians differ by more than
              the base's quartile distance;
  within bound otherwise.

failed_share (failed / attempted rounds, summed over runs) is worse on any
increase. Exit status 1 when any verdict is "worse", else 0.
"""

import argparse
import json
import os
import statistics
import sys


def load_records(spec):
    """Per workload, the list of end-to-end records, in file-name order."""
    paths = []
    for part in spec.split(","):
        if os.path.isdir(part):
            for folder, _, files in os.walk(part):
                paths += [os.path.join(folder, f) for f in files
                          if f.endswith(".json")]
        else:
            paths.append(part)
    runs = {}
    for path in sorted(paths):
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, ValueError):
            continue
        if not isinstance(doc, dict):
            continue
        if doc.get("schema") == "mcs.bench.results.v1":
            records = list(doc.get("workloads", {}).values())
        elif doc.get("schema") == "mcs.bench.v1":
            records = [doc]
        else:
            continue
        for record in records:
            if not record.get("traced"):
                runs.setdefault(record["workload"], []).append(record)
    return runs


def quartiles(values):
    """Linear interpolation between the runs ("inclusive"), as mcs_bench
    summarizes passes; the default "exclusive" method puts the quartiles of
    ten runs at positions 2.75 / 8.25 and of two or three outside the data."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def spread_text(values):
    q1, median, q3 = quartiles(values)
    return "{:.4g} [{:.4g}, {:.4g}]".format(median, q1, q3)


def verdict(base, cand, better, bound):
    sign = 1.0 if better == "lower" else -1.0
    b_q1, b_med, b_q3 = quartiles(base)
    c_q1, c_med, c_q3 = quartiles(cand)
    worse_by = sign * (c_med - b_med) / b_med
    spread = max((b_q3 - b_q1) / b_med, (c_q3 - c_q1) / c_med)
    beats = (lambda c, b: c < b) if better == "lower" else (lambda c, b: c > b)
    all_beat = all(beats(c, b) for c in cand for b in base)
    if spread > bound:
        return ("better" if all_beat else "unresolved"), worse_by
    if worse_by > bound:
        return "worse", worse_by
    pairs = list(zip(base, cand))
    wins = sum(1 for b, c in pairs if beats(c, b))
    if pairs and wins >= 0.9 * len(pairs) and abs(c_med - b_med) > b_q3 - b_q1:
        return "better", worse_by
    return "within bound", worse_by


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("candidate")
    parser.add_argument("--bench",
                        default=os.path.join(here, "..", "BENCHMARK.json"))
    args = parser.parse_args()

    with open(args.bench) as f:
        metrics = json.load(f)["end_to_end"]
    base = load_records(args.base)
    cand = load_records(args.candidate)
    if not base or not cand:
        sys.exit("compare.py: no end-to-end records on one side")

    any_worse = False
    row = "{:<22} {:<18} {:>26} {:>26} {:>8} {:>6}  {}"
    print(row.format("workload", "metric", "base median [q1, q3]",
                     "candidate median [q1, q3]", "change", "bound", "verdict"))
    for workload in sorted(set(base) & set(cand)):
        b_runs, c_runs = base[workload], cand[workload]
        for metric in metrics:
            name = metric["name"]
            b = [r["metrics"][name]["value"] for r in b_runs
                 if name in r["metrics"]]
            c = [r["metrics"][name]["value"] for r in c_runs
                 if name in r["metrics"]]
            if not b or not c:
                continue
            result, worse_by = verdict(b, c, metric["better"], metric["bound"])
            any_worse |= result == "worse"
            print(row.format(workload, name, spread_text(b), spread_text(c),
                             "{:+.1%}".format(worse_by),
                             "{:.0%}".format(metric["bound"]), result))
        shares = []
        for runs in (b_runs, c_runs):
            attempted = sum(r["attempted"] for r in runs)
            shares.append(sum(r["failed"] for r in runs) / max(attempted, 1))
        result = "worse" if shares[1] > shares[0] else "within bound"
        any_worse |= result == "worse"
        print(row.format(workload, "failed_share", "{:.4g}".format(shares[0]),
                         "{:.4g}".format(shares[1]), "", "0", result))
    for workload in sorted(set(base) ^ set(cand)):
        print("{}: only on one side, not compared".format(workload))
    print("change: how much worse the candidate's median is (negative = "
          "better)")
    sys.exit(1 if any_worse else 0)


if __name__ == "__main__":
    main()
