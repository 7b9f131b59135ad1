"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/series.py --workloads se-equal,cli-small --seeds 1-10 \
        --record DIR [--trace 0|1]

Every run measures for ``run_seconds`` from ``BENCHMARK.json`` and
appends its result to ``DIR/results.jsonl`` (see ``run.py --record``).
The table gives, per workload and metric, the median, the quartiles and
the spread, the interquartile distance as a share of the median, next to
the metric's bound from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"


def seeds(spec: str) -> list[int]:
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def load(path: Path, trace: int = 0) -> dict[str, list[dict]]:
    """Results in ``path/results.jsonl`` by workload, in file order."""
    by_workload: dict[str, list[dict]] = {}
    for line in (path / "results.jsonl").read_text().splitlines():
        rec = json.loads(line)
        if rec["trace"] == trace:
            by_workload.setdefault(rec["workload"], []).append(rec)
    return by_workload


def spread_table(by_workload: dict[str, list[dict]], bounds: dict[str, float]) -> list[str]:
    rows = [f"{'workload':<18} {'metric':<16} {'runs':>4} {'q1':>11} {'median':>11} {'q3':>11} {'spread':>7} {'bound':>6}"]
    for workload, recs in by_workload.items():
        failed = sum(r["failed"] for r in recs)
        for metric in recs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in recs]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(metric)
            mark = "" if bound is None or spread <= bound / 3 else "  > bound/3" if spread <= bound else "  > BOUND"
            rows.append(f"{workload:<18} {metric:<16} {len(values):>4} {q1:>11.5g} {med:>11.5g} {q3:>11.5g} "
                        f"{spread:>7.3f} {bound if bound is not None else '':>6}{mark}")
        if failed:
            rows.append(f"{workload:<18} FAILED decisions in these runs: {failed}")
    return rows


def bounds_of() -> dict[str, float]:
    spec = json.loads(BENCHMARK.read_text())
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", required=True, help="comma-separated workload names")
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", type=Path, required=True)
    args = ap.parse_args(argv)
    seconds = json.loads(BENCHMARK.read_text())["run_seconds"]
    for workload in args.workloads.split(","):
        for seed in seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace), "--record", str(args.record)]
            began = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            took = time.perf_counter() - began
            lines = proc.stdout.strip().splitlines()
            try:
                ok = proc.returncode == 0 and json.loads(lines[-1])["correct"] is True
            except (IndexError, ValueError, KeyError):
                ok = False
            status = "ok" if ok else "FAILED"
            print(f"{workload} seed {seed}: {status} in {took:.1f} s", flush=True)
            if status != "ok":
                print(proc.stdout[-2000:], proc.stderr[-2000:], sep="\n", file=sys.stderr)
    if args.trace == 0:
        print("\n".join(spread_table(load(args.record), bounds_of())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
