"""Tests of the verdict rule in ``compare.py``.

    python3 -m pytest perfbench/test_compare.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from compare import verdict  # noqa: E402


def paired(parent, change):
    return list(zip(parent, change))


def test_small_shift_of_a_steady_metric_is_not_worse():
    # every change run reads worse, but by 0.5%, well inside the bound
    parent = [23.28 + 0.01 * i for i in range(10)]
    change = [p * 1.005 + 0.2 for p in parent]
    assert min(change) > max(parent)
    assert verdict(parent, change, paired(parent, change), 0.1, True) == "same"


def test_separated_shift_beyond_the_bound_is_worse():
    parent = [1.0 + 0.01 * i for i in range(10)]
    change = [1.5 + 0.01 * i for i in range(10)]
    assert verdict(parent, change, paired(parent, change), 0.25, True) == "worse"


def test_separated_gain_within_the_parent_spread_is_not_better():
    # every change run beats every parent run, but the medians differ by
    # less than the parent's interquartile distance
    parent = [1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0]
    change = [0.99] * 10
    assert verdict(parent, change, paired(parent, change), 5.0, True) == "same"


def test_separated_gain_beyond_the_parent_spread_is_better():
    parent = [1.0 + 0.01 * i for i in range(10)]
    change = [0.5 + 0.01 * i for i in range(10)]
    assert verdict(parent, change, paired(parent, change), 0.25, True) == "better"
    # higher is better: the same gain on a throughput
    up = [1 / p for p in parent], [1 / c for c in change]
    assert verdict(*up, paired(*up), 0.25, False) == "better"


def test_wide_overlapping_spread_is_unresolved():
    parent = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
    change = [1.1, 1.9, 1.1, 1.9, 1.1, 1.9, 1.1, 1.9, 1.1, 1.9]
    assert verdict(parent, change, paired(parent, change), 0.25, True) == "unresolved"


def test_equal_runs_are_the_same():
    runs = [1.0 + 0.001 * i for i in range(10)]
    assert verdict(runs, list(runs), paired(runs, runs), 0.1, True) == "same"
