#!/usr/bin/env python3
"""Compares two benchmark result files metric by metric.

    python3 benchmark/compare.py PARENT.json CHANGE.json [--spec BENCHMARK.json]

Both files come from `benchmark/run.sh --out FILE`. For every workload in
both, each end-to-end metric of BENCHMARK.json is judged against the
bound BENCHMARK.json fixes for it:

  ok          the change's median is not worse than the parent's by more
              than the bound
  REGRESSION  it is worse by more than the bound
  unresolved  the spread (q3 - q1) / median of either side is wider than
              the bound, so the medians cannot be told apart
  better      as unresolved, except that every rep of the change reads
              better than every rep of the parent

failed_ratio may not rise at all. A digest that differs between the two
files is reported: a change that only claims speed must leave every
simulated outcome identical. Prints one row per workload and exits 1 on
any REGRESSION or higher failed_ratio, 0 otherwise.
"""

import argparse
import json
import os
import sys

DEFAULT_SPEC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")


def spread(summary):
    """Distance between the quartiles as a share of the median."""
    median = summary["median"]
    return (summary["q3"] - summary["q1"]) / median if median else 0.0


def judge(metric, parent, change):
    """Returns (verdict, relative change of the median) for one metric."""
    lower = metric["better"] == "lower"
    base = parent["median"]
    delta = (change["median"] - base) / base if base else 0.0
    worse = delta if lower else -delta
    if max(spread(parent), spread(change)) > metric["bound"]:
        beats = (max(change["samples"]) < min(parent["samples"]) if lower
                 else min(change["samples"]) > max(parent["samples"]))
        return ("better" if beats else "unresolved"), delta
    return ("REGRESSION" if worse > metric["bound"] else "ok"), delta


def compare(spec, parent, change):
    """Returns (rows, failed): one printable row per workload."""
    metrics = spec["end_to_end"]
    rows = []
    failed = False
    names = [w for w in parent["workloads"] if w in change["workloads"]]
    for name in names:
        a = parent["workloads"][name]
        b = change["workloads"][name]
        cells = []
        for metric in metrics:
            verdict, delta = judge(metric, a["metrics"][metric["name"]], b["metrics"][metric["name"]])
            failed = failed or verdict == "REGRESSION"
            cells.append(f"{metric['name']} {delta:+.1%} {verdict}")
        fr_a, fr_b = a["failed_ratio"], b["failed_ratio"]
        fr_verdict = "REGRESSION" if fr_b > fr_a else "ok"
        failed = failed or fr_verdict == "REGRESSION"
        cells.append(f"failed_ratio {fr_a:.6g}->{fr_b:.6g} {fr_verdict}")
        cells.append("digest same" if a["digest"] == b["digest"] else "digest DIFFERS")
        rows.append(f"{name:<10} " + " | ".join(cells))
    return rows, failed


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--spec", default=DEFAULT_SPEC)
    args = parser.parse_args(argv)
    with open(args.spec) as f:
        spec = json.load(f)
    with open(args.parent) as f:
        parent = json.load(f)
    with open(args.change) as f:
        change = json.load(f)
    rows, failed = compare(spec, parent, change)
    bounds = ", ".join(f"{m['name']} {m['bound']:.0%}" for m in spec["end_to_end"])
    print(f"bounds: {bounds}; failed_ratio may not rise")
    for row in rows:
        print(row)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
