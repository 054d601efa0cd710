#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark reports, metric by metric.

Usage::

    python benchmarks/e2e/compare.py --parent p1.json p2.json ... \\
        --change c1.json c2.json ...

Each report is one ``run.py`` report file; the i-th parent report is
paired with the i-th change report, so list them in the order the runs
alternated.  Every (metric, workload) pair gets its own row and one
verdict:

* **regressed** -- the change's median is worse than the parent's by more
  than the metric's bound, an exact metric changed, or a metric with a
  zero bound (``failed_fraction``) has a change run worse than every
  parent run;
* **improved** -- at least 10 pairs, the change wins at least nine tenths
  of them (ties count for neither side), and the medians differ by more
  than the parent's interquartile range;
* **unresolved** -- neither of these, and the run-to-run spread
  (interquartile range over the median, either side) is wider than the
  bound, unless every change run reads better than every parent run;
* **unchanged** -- otherwise.

The rules are tried in that order, so noise never hides a regression.
Bounds come from BENCHMARK.json (its ``end_to_end`` metrics) and from
``config.json`` (the workload-specific metrics).  Exit status 1 means at
least one pair regressed, 2 that none regressed but at least one is
unresolved: run more pairs before drawing a conclusion.
"""

import argparse
import json
import os
import sys

from measure import quartiles, relative_spread

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

IMPROVED, UNCHANGED, REGRESSED, UNRESOLVED = "improved", "unchanged", "regressed", "unresolved"
#: Pairs needed before a gain may be claimed.
MIN_PAIRS = 10
#: Share of pairs the change must win to claim a gain.
WIN_SHARE = 0.9


def verdict(parent, change, better, bound):
    """The verdict for one metric's parent and change values (run order)."""
    if better == "exact":
        return UNCHANGED if len(set(parent) | set(change)) == 1 else REGRESSED
    sign = 1.0 if better == "higher" else -1.0
    if bound == 0:
        # No worsening allowed (failed_fraction): the change's worst run
        # may not be worse than the parent's worst.
        worst = min if better == "higher" else max
        if sign * (worst(change) - worst(parent)) < 0:
            return REGRESSED
    p_q1, p_median, p_q3 = quartiles(parent)
    c_median = quartiles(change)[1]
    gain = sign * (c_median - p_median)
    if p_median:
        worse = -gain / abs(p_median)
    else:
        worse = float("inf") if gain < 0 else 0.0
    if worse > bound:
        return REGRESSED
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if (
        len(pairs) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(pairs)
        and gain > 0
        and abs(c_median - p_median) > p_q3 - p_q1
    ):
        return IMPROVED
    every_run_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if max(relative_spread(parent), relative_spread(change)) > bound and not every_run_better:
        return UNRESOLVED
    return UNCHANGED


def metric_bounds(benchmark, config):
    """``{metric: (better, bound)}`` of every compared metric."""
    table = {m["name"]: (m["better"], m["bound"]) for m in benchmark["end_to_end"]}
    for name, metric in config["metrics"].items():
        table[name] = (metric["better"], metric["bound"])
    return table


def collect(paths):
    """``{(workload, metric): [value per report, in order]}``."""
    values = {}
    for path in paths:
        with open(path) as handle:
            report = json.load(handle)
        for workload, entry in sorted(report["workloads"].items()):
            for metric, summary in entry["metrics"].items():
                values.setdefault((workload, metric), []).append(summary["value"])
    return values


def compare(parent_paths, change_paths, bounds):
    """One row per (workload, metric) present on both sides."""
    parent, change = collect(parent_paths), collect(change_paths)
    rows = []
    for key in sorted(set(parent) & set(change)):
        workload, metric = key
        if metric not in bounds:
            continue
        better, bound = bounds[metric]
        rows.append(
            {
                "workload": workload,
                "metric": metric,
                "better": better,
                "bound": bound,
                "parent": quartiles(parent[key]),
                "change": quartiles(change[key]),
                "pairs": min(len(parent[key]), len(change[key])),
                "verdict": verdict(parent[key], change[key], better, bound),
            }
        )
    return rows


def render(rows):
    lines = [
        "{:<13} {:<21} {:>6} {:>30} {:>30} {:>5}  {}".format(
            "workload", "metric", "bound", "parent q1/median/q3", "change q1/median/q3", "pairs", "verdict"
        )
    ]
    for row in rows:
        lines.append(
            "{:<13} {:<21} {:>6g} {:>30} {:>30} {:>5}  {}".format(
                row["workload"],
                row["metric"],
                row["bound"],
                "/".join("{:.4g}".format(value) for value in row["parent"]),
                "/".join("{:.4g}".format(value) for value in row["change"]),
                row["pairs"],
                row["verdict"],
            )
        )
    counts = {verdict: 0 for verdict in (REGRESSED, UNRESOLVED, IMPROVED, UNCHANGED)}
    for row in rows:
        counts[row["verdict"]] += 1
    lines.append(", ".join("{} {}".format(count, verdict) for verdict, count in counts.items()))
    return "\n".join(lines)


def exit_status(rows):
    """1 if any pair regressed, else 2 if any is unresolved, else 0."""
    verdicts = {row["verdict"] for row in rows}
    if REGRESSED in verdicts:
        return 1
    return 2 if UNRESOLVED in verdicts else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True, help="the parent commit's reports")
    parser.add_argument("--change", nargs="+", required=True, help="the change's reports")
    arguments = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    with open(os.path.join(HERE, "config.json")) as handle:
        config = json.load(handle)
    rows = compare(arguments.parent, arguments.change, metric_bounds(benchmark, config))
    print(render(rows))
    return exit_status(rows)


if __name__ == "__main__":
    sys.exit(main())
