#!/usr/bin/env python3
"""Compares two sets of repository-benchmark runs, pair by pair.

    python3 scripts/bench_compare.py PARENT_DIR CHANGE_DIR

Each directory holds result JSONs written by `perfbench/run.py` (its
`.bench_build/results/` files, `{"meta": ..., "report": ...}`), searched
recursively. A parent run and a change run form a pair when they share
workload, trace flag and seed; several runs of one seed pair up in file-name
order, so copy each run's result to its own name (for example
`fleet_hotspot_1_trace0.run3.json`) when repeating a seed. A seed with more
runs on one side than the other keeps only as many pairs as the shorter
side has, and says so on stderr.

For every workload and every metric BENCHMARK.json lists (end-to-end for
`--trace 0` runs, per-layer for `--trace 1`), it prints both medians, both
quartiles, the relative move of the median, the pairs the change won, and
two verdicts:

  claim  the change is better on at least 9 of every 10 pairs, and its
         median beats the parent's by more than the parent's IQR; printed
         as `n<10` when there are fewer than 10 pairs
  bound  (end-to-end metrics only) the change's median is not worse than
         the parent's by more than the metric's bound; `unresolved` when
         the parent's own IQR over its median is wider than the bound and
         not every change run beats every parent run

Quartiles interpolate linearly between order statistics (numpy's default).
Exits 0 after printing; it judges nothing on its own exit code.
"""

import argparse
import json
import math
import os
import sys


def load_runs(top):
    """{(workload, trace, seed): [metrics dict, ...]} in file-name order."""
    runs = {}
    paths = []
    for root, _, files in os.walk(top):
        paths += [os.path.join(root, f) for f in files if f.endswith(".json")]
    for path in sorted(paths):
        try:
            with open(path) as f:
                doc = json.load(f)
            meta, report = doc["meta"], doc["report"]
        except (OSError, ValueError, KeyError, TypeError):
            print("skipping %s: not a perfbench result" % path,
                  file=sys.stderr)
            continue
        key = (meta["workload"], int(meta["trace"]), int(meta["seed"]))
        values = {name: m["value"] for name, m in report["metrics"].items()}
        runs.setdefault(key, []).append(values)
    return runs


def quantile(xs, q):
    xs = sorted(xs)
    pos = (len(xs) - 1) * q
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def fmt(v):
    if v == 0 or 1e-3 <= abs(v) < 1e6:
        return "%.4g" % v
    return "%.3e" % v


def compare(parent, change, spec):
    specs = {}
    for m in spec["end_to_end"]:
        specs[(0, m["name"])] = m
    for m in spec["per_layer"]:
        specs[(1, m["name"])] = m

    groups = {}
    for key in sorted(set(parent) & set(change)):
        workload, trace, _ = key
        if len(parent[key]) != len(change[key]):
            print("%s trace %d seed %d: %d parent run(s), %d change run(s);"
                  " keeping %d pair(s)"
                  % (key + (len(parent[key]), len(change[key]),
                            min(len(parent[key]), len(change[key])))),
                  file=sys.stderr)
        pairs = list(zip(parent[key], change[key]))
        groups.setdefault((workload, trace), []).extend(pairs)

    unpaired = sorted(set(parent) ^ set(change))
    for key in unpaired:
        print("unpaired: %s trace %d seed %d" % key, file=sys.stderr)

    header = ("%-30s %11s %11s %8s %23s %23s %6s %5s %5s"
              % ("metric", "parent_med", "change_med", "move",
                 "parent_q1..q3", "change_q1..q3", "wins", "claim",
                 "bound"))
    for (workload, trace), pairs in sorted(groups.items()):
        print("\n== %s  trace %d  %d pair(s)" % (workload, trace, len(pairs)))
        print(header)
        for (t, name), m in specs.items():
            if t != trace:
                continue
            both = [(p[name], c[name]) for p, c in pairs
                    if name in p and name in c]
            if not both:
                continue
            ps = [p for p, _ in both]
            cs = [c for _, c in both]
            higher = m["better"] == "higher"
            wins = sum(1 for p, c in both if (c > p if higher else c < p))
            pm, cm = quantile(ps, 0.5), quantile(cs, 0.5)
            p1, p3 = quantile(ps, 0.25), quantile(ps, 0.75)
            c1, c3 = quantile(cs, 0.25), quantile(cs, 0.75)
            gain = (cm - pm) if higher else (pm - cm)
            if len(both) < 10:
                claim = "n<10"
            elif wins * 10 >= 9 * len(both) and gain > (p3 - p1):
                claim = "yes"
            else:
                claim = "no"
            move = (cm - pm) / abs(pm) if pm else float("nan")
            bound = "-"
            if "bound" in m and pm:
                worse = -gain / abs(pm)
                all_beat = (min(cs) > max(ps)) if higher else (max(cs) < min(ps))
                if (p3 - p1) / abs(pm) > m["bound"] and not all_beat:
                    bound = "unresolved"
                else:
                    bound = "ok" if worse <= m["bound"] else "FAIL"
            print("%-30s %11s %11s %+7.1f%% %23s %23s %3d/%-2d %5s %s"
                  % (name, fmt(pm), fmt(cm), 100.0 * move,
                     fmt(p1) + ".." + fmt(p3), fmt(c1) + ".." + fmt(c3),
                     wins, len(both), claim, bound))


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(
        description="Pairwise comparison of two perfbench result sets.")
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--benchmark",
                        default=os.path.join(here, "..", "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.benchmark) as f:
        spec = json.load(f)
    compare(load_runs(args.parent_dir), load_runs(args.change_dir), spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
