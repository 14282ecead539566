#!/usr/bin/env python3
"""Compares two sets of benchmark runs, metric by metric.

Usage:

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR [--benchmark BENCHMARK.json]

Each directory holds one file per run: the captured stdout of
`perfbench/run.py`. Its first line names the workload, its last line is the
JSON result. Within a workload, runs are paired in sorted file-name order, so
name the files alike on both sides (for example `<workload>-<seed>.txt`) and
make the runs alternately, base first, then change first.

For every (workload, metric) it prints each side's median and quartiles,
the share of pairs the change won (ties count for neither side), and a
verdict:

  improved    the change won at least 9 in 10 of all pairs, and the medians
              differ by more than the base's own quartile spread;
  worse       the change's median is worse than the base's by more than the
              metric's bound;
  unresolved  the base's quartile spread, as a share of its median, is wider
              than the bound, and not every change run beats every base run;
  no worse    otherwise.

Bounds and directions come from BENCHMARK.json. Per-layer metrics, and the
end-to-end metrics a run prints without a bound (update_to_plan_p99_ms and
op_error_rate, read from the report's `metric` lines), are reported as
improved, worse (the same win rule in the other direction) or unbounded.
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# End-to-end metrics the report prints without a bound: name -> unit.
PRINTED_ONLY = {"update_to_plan_p99_ms": "ms", "op_error_rate": "ratio"}


def load_runs(directory):
    runs = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        with open(path) as f:
            lines = [line for line in f.read().splitlines() if line.strip()]
        if not lines or not lines[0].startswith("perfbench workload="):
            print("skipping %s: not a run report" % path, file=sys.stderr)
            continue
        workload = lines[0].split()[1].split("=", 1)[1]
        try:
            result = json.loads(lines[-1])
        except ValueError:
            print("skipping %s: no JSON result" % path, file=sys.stderr)
            continue
        for line in lines:
            parts = line.split()
            if len(parts) >= 4 and parts[0] == "metric" and parts[1] in PRINTED_ONLY:
                result["metrics"][parts[1]] = {"value": float(parts[3]), "unit": PRINTED_ONLY[parts[1]]}
        runs.setdefault(workload, []).append(result)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, change, lower_is_better, bound):
    def better(a, b):
        return a < b if lower_is_better else a > b

    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if better(c, b))
    losses = sum(1 for b, c in pairs if better(b, c))
    b_q1, b_med, b_q3 = quartiles(base)
    c_med = statistics.median(change)
    spread = b_q3 - b_q1
    beyond_spread = abs(c_med - b_med) > spread
    won_share = wins / len(pairs) if pairs else 0.0
    if pairs and wins >= 0.9 * len(pairs) and beyond_spread:
        label = "improved"
    elif bound is None:
        label = "worse" if pairs and losses >= 0.9 * len(pairs) and beyond_spread else "unbounded"
    else:
        allowed = bound * abs(b_med)
        worse_by = (c_med - b_med) if lower_is_better else (b_med - c_med)
        all_better = all(better(c, b) for c in change for b in base)
        if b_med != 0 and spread / abs(b_med) > bound and not all_better:
            label = "unresolved"
        elif worse_by > allowed:
            label = "worse"
        else:
            label = "no worse"
    return won_share, label


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default=os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    args = parser.parse_args()

    with open(args.benchmark) as f:
        bench = json.load(f)
    spec = {}
    for m in bench["end_to_end"]:
        spec[m["name"]] = (m["better"] == "lower", m["bound"], m["unit"])
    for m in bench["per_layer"]:
        spec[m["name"]] = (m["better"] == "lower", None, m["unit"])
    for name, unit in PRINTED_ONLY.items():
        spec.setdefault(name, (True, None, unit))

    base_runs = load_runs(args.base)
    change_runs = load_runs(args.change)
    header = "%-12s %-32s %-31s %-31s %5s  %s" % (
        "workload", "metric", "base median [q1, q3]", "change median [q1, q3]", "won", "verdict")
    print(header)
    print("-" * len(header))
    any_worse = False
    for workload in sorted(set(base_runs) & set(change_runs)):
        base, change = base_runs[workload], change_runs[workload]
        n = min(len(base), len(change))
        base, change = base[:n], change[:n]
        failed = (sum(r["failed"] for r in base), sum(r["failed"] for r in change))
        for name in sorted(set(base[0]["metrics"]) & set(change[0]["metrics"])):
            if name not in spec:
                continue
            lower, bound, unit = spec[name]
            b = [r["metrics"][name]["value"] for r in base]
            c = [r["metrics"][name]["value"] for r in change]
            won, label = verdict(b, c, lower, bound)
            if label == "improved" and failed[1] > failed[0]:
                label = "improved, but more operations failed: gain does not count"
            any_worse |= label == "worse"
            print("%-12s %-32s %-31s %-31s %4.0f%%  %s" % (
                workload, "%s (%s)" % (name, unit),
                "%.4g [%.4g, %.4g]" % tuple(quartiles(b)[i] for i in (1, 0, 2)),
                "%.4g [%.4g, %.4g]" % tuple(quartiles(c)[i] for i in (1, 0, 2)),
                100 * won, label))
        print("%-12s %d pairs; failed operations base=%d change=%d" % (workload, n, *failed))
    missing = set(base_runs) ^ set(change_runs)
    if missing:
        print("workloads on one side only: %s" % ", ".join(sorted(missing)))
    sys.exit(1 if any_worse else 0)


if __name__ == "__main__":
    main()
