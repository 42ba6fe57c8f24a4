#!/usr/bin/env python3
"""Gate microbenchmark results against a committed baseline.

Usage: check_bench_regression.py BASELINE.json CURRENT.json [--tolerance 0.15]

Both files are microbench_simulator output:

    {"benchmarks": [{"name": ..., "value": ..., "unit": ...,
                     "steady_state_allocations": ...}, ...]}

The binary only measures; every gate on its numbers is stated here, once.
Three classes of regression fail the gate:

  * steady_state_allocations grows for any benchmark present in the
    baseline, or is nonzero on a ZERO_ALLOC_INVARIANT path (zero
    tolerance: the alloc-free hot path is a hard invariant, not a
    performance number).
  * a FLOORS rule fails on the current run: a named benchmark's value
    against a fixed limit, whatever the baseline says.
  * a rate-style benchmark (unit not in the timing/informational set)
    drops more than --tolerance (default 15%) below the baseline value,
    or a lower-is-better benchmark ("bytes", "ns/lookup", "ns/op" — copy
    counts and per-op latencies) rises more than --tolerance above it. A
    lower-is-better baseline of exactly zero is a hard invariant: any
    nonzero current value fails (the zero-copy path started copying).

Wall-clock style results ("sec") and machine-dependent ones ("threads",
scaling factor "x") are reported but never gated: CI runners are too
noisy for absolute timing, and the same work is covered by the rate
benchmarks. The parallel-engine "speedup" unit is deliberately NOT in
the ungated set: sim_parallel_speedup is a first-class deliverable of
the parallel simulation cells, held to its FLOORS rule (>= 2x at 4
cells) and to its baseline. (On hosts with fewer than 4 cores the bench
binary emits that entry under the ungated "x" unit, which the rule and
the baseline comparison both skip — gating keys off the current run's
unit — since a parallel speedup measured without the cores to run the
cells is noise, not signal.)
New benchmarks missing from the baseline are reported as informational;
benchmarks that disappeared fail the gate (a silently dropped benchmark
is how regressions hide).

Entries carrying "informational": true (in either file) are exempt from
the baseline rules: their values are machine- or disk-dependent (the real-I/O
uring numbers, emitted only when SST_URING_BENCH_FILE is set), so they
ride the baseline file for visibility but never gate — value drift is
reported, and absence from the current run is fine when the run had no
backing file.
"""

import argparse
import json
import sys

# Units where a smaller/different value is not a regression signal.
UNGATED_UNITS = {"sec", "s", "threads", "x"}
# Units where the value growing (not shrinking) is the regression.
LOWER_IS_BETTER_UNITS = {"bytes", "ns/lookup", "ns/op"}
# Hot paths that must never allocate in steady state, independent of the
# committed baseline: a baseline that itself regressed (nonzero allocs)
# must not grandfather the regression in. The flight recorder is on this
# list because it is always-on — an allocation there taxes every request.
ZERO_ALLOC_INVARIANT = {
    "event_throughput", "event_throughput_8k", "schedule_cancel",
    "tracer_record", "flight_record", "staging_zero_copy",
    "ctrl_cache_256", "ctrl_cache_8k", "staged_request_path",
}
# Fixed floors on the current run:
# benchmark -> (unit the rule applies in, or None for any, comparison, limit).
FLOORS = {
    # Lookup cost at 32k streams over 1k. The O(log n) index's log factor
    # is ~1.5x; 10x leaves room for the larger map falling out of cache
    # and still sits far below the >100x of a linear scan.
    "find_stream_scaling": (None, "<", 10.0),
    # Controller cache round cost at 8k extents over 256: a list walk
    # costs about 32x, the O(log n) index well under 4x.
    "ctrl_cache_scaling": (None, "<", 4.0),
    # 4 cells over 1 on a host with at least 4 cores.
    "sim_parallel_speedup": ("speedup", ">=", 2.0),
}
COMPARE = {"<": lambda v, limit: v < limit, ">=": lambda v, limit: v >= limit}


def load(path):
    with open(path) as fh:
        doc = json.load(fh)
    return {b["name"]: b for b in doc.get("benchmarks", [])}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="allowed fractional drop for rate benchmarks")
    args = parser.parse_args()

    base = load(args.baseline)
    cur = load(args.current)

    failures = []
    rows = []

    for name, (unit, op, limit) in FLOORS.items():
        c = cur.get(name)
        if c is None or (unit is not None and c.get("unit") != unit):
            continue
        if not COMPARE[op](float(c["value"]), limit):
            failures.append(f"{name}: {float(c['value']):.3f} {c.get('unit', '')} "
                            f"misses its floor ({op} {limit:g})")

    for name, b in sorted(base.items()):
        c = cur.get(name)
        informational = bool(b.get("informational")) or bool(
            (c or {}).get("informational"))
        if c is None:
            if informational:
                rows.append((name, float(b["value"]), float("nan"),
                             b.get("unit", ""), 0, "(informational, absent)"))
            else:
                failures.append(
                    f"{name}: present in baseline but missing from current run")
            continue

        b_alloc = int(b.get("steady_state_allocations", 0))
        c_alloc = int(c.get("steady_state_allocations", 0))
        if informational:
            b_val, c_val = float(b["value"]), float(c["value"])
            drift = (c_val - b_val) / b_val if b_val else 0.0
            rows.append((name, b_val, c_val, c.get("unit", ""), c_alloc,
                         f"(informational, {drift:+.1%})"))
            continue
        if c_alloc > b_alloc:
            failures.append(
                f"{name}: steady-state allocations regressed {b_alloc} -> {c_alloc}")
        if name in ZERO_ALLOC_INVARIANT and c_alloc != 0:
            failures.append(
                f"{name}: {c_alloc} steady-state allocations on an alloc-free "
                "invariant path")

        unit = c.get("unit", "")
        b_val, c_val = float(b["value"]), float(c["value"])
        note = ""
        if unit in LOWER_IS_BETTER_UNITS:
            if b_val == 0:
                if c_val > 0:
                    failures.append(
                        f"{name}: {c_val:.3f} {unit} regressed from a zero baseline "
                        "(hard invariant)")
                    note = "FAIL"
                else:
                    note = "=0"
            else:
                rise = (c_val - b_val) / b_val
                if rise > args.tolerance:
                    failures.append(
                        f"{name}: {c_val:.3f} {unit} is {rise:.1%} above baseline "
                        f"{b_val:.3f} (tolerance {args.tolerance:.0%})")
                    note = "FAIL"
                else:
                    note = f"{rise:+.1%}"
        elif unit not in UNGATED_UNITS and b_val > 0:
            drop = (b_val - c_val) / b_val
            if drop > args.tolerance:
                failures.append(
                    f"{name}: {c_val:.3f} {unit} is {drop:.1%} below baseline "
                    f"{b_val:.3f} (tolerance {args.tolerance:.0%})")
                note = "FAIL"
            else:
                note = f"{-drop:+.1%}"
        else:
            note = "(ungated)"
        rows.append((name, b_val, c_val, unit, c_alloc, note))

    for name in sorted(set(cur) - set(base)):
        c = cur[name]
        c_alloc = int(c.get("steady_state_allocations", 0))
        if name in ZERO_ALLOC_INVARIANT and c_alloc != 0:
            failures.append(
                f"{name}: {c_alloc} steady-state allocations on an alloc-free "
                "invariant path")
        rows.append((name, float("nan"), float(c["value"]), c.get("unit", ""),
                     c_alloc, "(new)"))

    print(f"{'benchmark':<28} {'baseline':>14} {'current':>14} "
          f"{'unit':<12} {'allocs':>7}  delta")
    for name, b_val, c_val, unit, allocs, note in rows:
        b_txt = "-" if b_val != b_val else f"{b_val:.3f}"
        c_txt = "-" if c_val != c_val else f"{c_val:.3f}"
        print(f"{name:<28} {b_txt:>14} {c_txt:>14} {unit:<12} {allocs:>7}  {note}")

    if failures:
        print("\nbenchmark regression gate FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("\nbenchmark regression gate passed "
          f"({len(rows)} benchmarks, tolerance {args.tolerance:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
