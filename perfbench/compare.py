"""Compare a parent's and a change's benchmark runs, per workload and metric.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the ``results.jsonl`` that ``run.py --record`` (or
``series.py``) wrote, from runs with the same benchmark code and settings.
Runs pair up by workload and seed.  For every workload and end-to-end
metric one row gives both sides' quartiles and a verdict:

* ``better``: the change wins at least nine tenths of the pairs, ties
  counting for neither, and the medians differ by more than the parent's
  interquartile distance;
* ``worse``: the change's median is worse than the parent's by more than
  the metric's bound;
* ``unresolved``: either side's spread (interquartile distance over the
  median) is wider than the bound, unless every change run reads better,
  or every one worse, than every parent run (then the two tests above
  still decide);
* ``same``: none of the above.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from series import BENCHMARK, load, quartiles


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            bound: float, lower_is_better: bool) -> str:
    def better(a: float, b: float) -> bool:  # a reads better than b
        return a < b if lower_is_better else a > b

    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    # sides that do not overlap are resolved however wide their spread;
    # the gain and the bound tests below still decide the verdict
    apart = (all(better(c, p) for c in change for p in parent)
             or all(better(p, c) for c in change for p in parent))
    if not apart and ((p3 - p1) / pm > bound or (c3 - c1) / cm > bound):
        return "unresolved"
    wins = sum(better(c, p) for p, c in pairs)
    if pairs and wins >= 0.9 * len(pairs) and better(cm, pm) and abs(cm - pm) > p3 - p1:
        return "better"
    worse_by = (cm - pm) / pm if lower_is_better else (pm - cm) / pm
    return "worse" if worse_by > bound else "same"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    spec = {m["name"]: m for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    parent, change = load(args.parent), load(args.change)
    print(f"{'workload':<18} {'metric':<16} {'parent q1/med/q3':>32} {'change q1/med/q3':>32} "
          f"{'wins':>6} {'bound':>6}  verdict")
    regressions = 0
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        by_seed = {r["seed"]: r for r in p_runs}
        for name, m in spec.items():
            pv = [r["metrics"][name]["value"] for r in p_runs]
            cv = [r["metrics"][name]["value"] for r in c_runs]
            pairs = [(by_seed[r["seed"]]["metrics"][name]["value"], r["metrics"][name]["value"])
                     for r in c_runs if r["seed"] in by_seed]
            lower = m["better"] == "lower"
            v = verdict(pv, cv, pairs, m["bound"], lower)
            regressions += v == "worse"
            wins = sum((c < p) if lower else (c > p) for p, c in pairs)
            fmt = "{:.4g}/{:.4g}/{:.4g}"
            print(f"{workload:<18} {name:<16} {fmt.format(*quartiles(pv)):>32} {fmt.format(*quartiles(cv)):>32} "
                  f"{wins:>3}/{len(pairs):<2} {m['bound']:>6}  {v}")
        failed = sum(r["failed"] for r in c_runs) - sum(r["failed"] for r in p_runs)
        if failed > 0:
            print(f"{workload:<18} the change failed {failed} more decisions than the parent")
            regressions += 1
    only = sorted(set(parent) ^ set(change))
    if only:
        print(f"workloads run on one side only: {', '.join(only)}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
