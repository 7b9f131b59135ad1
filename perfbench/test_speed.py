"""Tests of the speed scaling in ``speed.py``.

    python3 -m pytest perfbench/test_speed.py
"""

from __future__ import annotations

import signal
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import speed  # noqa: E402
from speed import REFERENCE_S, WINDOW_S, SpeedProbe  # noqa: E402


def recorded(at, took) -> SpeedProbe:
    probe = SpeedProbe()
    probe.at, probe.took = list(at), list(took)
    return probe


def test_reference_speed_leaves_the_time_alone():
    probe = recorded([0.0, 0.5, 2.0], [REFERENCE_S] * 3)
    assert probe.scale(1.0, 1.2) == pytest.approx(0.2)


def test_half_speed_halves_the_time():
    probe = recorded([0.8, 1.1, 1.3], [2 * REFERENCE_S] * 3)
    assert probe.scale(0.9, 1.2) == pytest.approx((0.3 - 2 * REFERENCE_S) / 2)


def test_probes_inside_the_sample_are_taken_off():
    # the probes at 1.1 and 1.2 ran inside the sample; all but the first
    # are in its window
    took = [REFERENCE_S, 0.01, 0.02, REFERENCE_S]
    probe = recorded([0.0, 1.1, 1.2, 1.5], took)
    own = 0.5 - 0.03
    assert probe.scale(1.0, 1.5) == pytest.approx(own * REFERENCE_S * 3 / sum(took[1:]))


def test_only_probes_near_the_sample_count():
    far = [0.0, 10.0]
    near = [5.0 - WINDOW_S / 2, 5.5 + WINDOW_S / 2]
    probe = recorded(sorted(far + near), [100 * REFERENCE_S, REFERENCE_S, REFERENCE_S, 100 * REFERENCE_S])
    assert probe.scale(5.0, 5.5) == pytest.approx(0.5)


def test_without_a_probe_near_the_closest_before_counts():
    probe = recorded([0.0, 100.0], [2 * REFERENCE_S, 4 * REFERENCE_S])
    assert probe.scale(50.0, 50.4) == pytest.approx(0.2)


def test_the_timer_runs_the_probe_and_is_restored():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as probe:
        n = len(probe.at)
        deadline = time.perf_counter() + 10 * speed.PERIOD_S
        while time.perf_counter() < deadline:
            pass
        ticked = len(probe.at) - n
        with probe.paused():
            paused_at = len(probe.at)
            time.sleep(5 * speed.PERIOD_S)
            assert len(probe.at) == paused_at
    assert ticked >= 3
    assert probe.at == sorted(probe.at)
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
