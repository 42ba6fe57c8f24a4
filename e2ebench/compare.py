#!/usr/bin/env python3
"""Paired comparison of two sets of benchmark results.

  python3 e2ebench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the `<workload>[.traced].seed<N>.json` files run.py
writes (--out DIR). Runs pair up by workload and seed; run the pairs
alternately (parent first, then change first) with identical settings.

For every (workload, metric) the table gives each side's median and
quartiles, the share of pairs the change won (ties count for neither) and a
verdict against BENCHMARK.json's bounds:

  improved      the change won at least 9 in 10 pairs and the medians
                differ by more than the parent's own spread (Q3 - Q1)
  unresolved    the parent's spread is wider than the bound, and not every
                change run beats every parent run
  regressed     the change's median is worse than the parent's by more
                than the bound
  within bound  otherwise

Per-layer metrics (traced runs) have no bound; they get medians, quartiles
and the won share only. Exits 1 when any end-to-end metric regressed.
"""

import glob
import json
import os
import re
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^(?P<workload>[a-z_]+)(?P<traced>\.traced)?\.seed(?P<seed>\d+)\.json$")


def load(directory):
    """{(workload, traced): {seed: metrics}}"""
    runs = {}
    for path in glob.glob(os.path.join(directory, "*.json")):
        m = NAME.match(os.path.basename(path))
        if not m:
            continue
        with open(path) as f:
            record = json.load(f)
        if not record["result"]["correct"]:
            print("warning: %s is marked incorrect" % path, file=sys.stderr)
        key = (m.group("workload"), bool(m.group("traced")))
        runs.setdefault(key, {})[int(m.group("seed"))] = record["result"]["metrics"]
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def verdict(parent, change, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    won = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    share = won / len(parent)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    if bound is None:
        return share, "-"
    gain = sign * (cm - pm)
    if share >= 0.9 and gain > p3 - p1:
        return share, "improved"
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if pm != 0 and (p3 - p1) / abs(pm) > bound and not all_better:
        return share, "unresolved"
    if pm != 0 and -gain / abs(pm) > bound:
        return share, "regressed"
    return share, "within bound"


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    parent, change = load(sys.argv[1]), load(sys.argv[2])
    regressed = False
    print("%-11s %-30s %5s %-33s %-33s %6s  %s" % (
        "workload", "metric", "pairs", "parent q1/median/q3", "change q1/median/q3", "won",
        "verdict"))
    for key in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[key]) & set(change[key]))
        if not seeds:
            continue
        for name in parent[key][seeds[0]]:
            if name not in specs:
                continue
            pv = [parent[key][s][name]["value"] for s in seeds]
            cv = [change[key][s][name]["value"] for s in seeds]
            share, word = verdict(pv, cv, specs[name]["better"], specs[name].get("bound"))
            regressed |= word == "regressed"
            print("%-11s %-30s %5d %-33s %-33s %5.0f%%  %s" % (
                key[0], name, len(seeds),
                "%.4g/%.4g/%.4g" % quartiles(pv), "%.4g/%.4g/%.4g" % quartiles(cv),
                100 * share, word))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
