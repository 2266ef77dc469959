#!/usr/bin/env python3
"""Compares two sets of benchmark runs, parent against change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds one file per run: the standard output of
perfbench/run.py (its last line is the result object), named
<workload>-<seed>.out, e.g. churn_10k-7.out.  Runs of the two sides pair up
by file name, so run both commits on the same seeds, alternating which side
runs first.

For every workload and end-to-end metric of BENCHMARK.json it prints each
side's median and quartiles, the share of pairs the change won (ties count
for neither side) and a verdict:

  improved    the change won at least 9 in 10 pairs and the medians differ,
              in its favour, by more than the parent's quartile spread;
  no worse    the change's median is not worse than the parent's by more
              than the metric's bound;
  worse       it is worse by more than the bound;
  unresolved  the parent's own quartile spread exceeds the bound, so a
              difference within it cannot be told from noise (unless every
              change run beats every parent run, which reads no worse).
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(directory, workloads):
    """{workload: {file name: {metric: value}}} of the runs in directory."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        stem = os.path.splitext(name)[0]
        workload = max((w for w in workloads if stem.startswith(w + "-")),
                       key=len, default=None)
        if workload is None:
            continue
        with open(os.path.join(directory, name)) as f:
            lines = f.read().strip().splitlines()
        result = json.loads(lines[-1])
        if not result.get("correct"):
            raise ValueError(f"{name}: run is not marked correct")
        runs.setdefault(workload, {})[name] = {
            metric: entry["value"]
            for metric, entry in result["metrics"].items()}
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent, change, bound, lower_is_better):
    """(verdict, share of pairs won by the change) for paired samples."""
    def better(a, b):  # a reads better than b
        return a < b if lower_is_better else a > b

    won = sum(better(c, p) for p, c in zip(parent, change))
    share = won / len(parent)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    spread = p_q3 - p_q1
    if share >= 0.9 and better(c_med, p_med) and abs(c_med - p_med) > spread:
        return "improved", share
    if all(better(c, p) for c in change for p in parent):
        return "no worse", share
    if p_med != 0 and spread / abs(p_med) > bound:
        return "unresolved", share
    worse_by = (c_med - p_med) if lower_is_better else (p_med - c_med)
    if p_med != 0 and worse_by / abs(p_med) > bound:
        return "worse", share
    return "no worse", share


def compare(parent_dir, change_dir, spec):
    workloads = [w["name"] for w in spec["workloads"]]
    parent_runs = load_runs(parent_dir, workloads)
    change_runs = load_runs(change_dir, workloads)
    rows = []
    for workload in workloads:
        p_runs = parent_runs.get(workload, {})
        c_runs = change_runs.get(workload, {})
        names = sorted(set(p_runs) & set(c_runs))
        if not names:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent = [p_runs[n][name] for n in names]
            change = [c_runs[n][name] for n in names]
            result, share = verdict(parent, change, metric["bound"],
                                    metric["better"] == "lower")
            rows.append((workload, name, metric["unit"], len(names),
                         quartiles(parent), quartiles(change), share, result))
    return rows


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    rows = compare(argv[1], argv[2], spec)
    if not rows:
        print("no paired runs found", file=sys.stderr)
        return 1
    print(f"{'workload':18s} {'metric':14s} {'pairs':>5s} "
          f"{'parent q1/median/q3':>30s} {'change q1/median/q3':>30s} "
          f"{'won':>5s}  verdict")
    for workload, name, unit, pairs, p, c, share, result in rows:
        p_text = "/".join(f"{v:.4g}" for v in p)
        c_text = "/".join(f"{v:.4g}" for v in c)
        print(f"{workload:18s} {name:14s} {pairs:5d} {p_text:>25s} {unit:>4s} "
              f"{c_text:>25s} {unit:>4s} {share:5.2f}  {result}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
