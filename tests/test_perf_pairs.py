"""The verdict ``scripts/perf_pairs.py`` prints per metric.

PERFORMANCE.md "Tracking regressions" states the rule: a gain when the
change is lower in at least 9/10 of the pairs and its median is below
the parent's by more than the parent's quartile distance, a loss in the
mirror case, and unresolved otherwise.
"""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]


def _perf_pairs():
    path = REPO / "scripts" / "perf_pairs.py"
    spec = importlib.util.spec_from_file_location("perf_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


verdict = _perf_pairs().verdict

#: ten parent runs: median 45.0, quartiles 42.5 and 47.25 (distance 4.75)
PARENT = [40.0, 41.0, 43.0, 44.0, 45.0, 45.0, 46.0, 47.0, 48.0, 50.0]


@pytest.mark.parametrize("change, expected", [
    # every pair 5 lower: median gap 5.0 > 4.75
    ([value - 5.0 for value in PARENT], "gain"),
    # 9 of 10 lower by 5, one higher: still a gain
    ([value - 5.0 for value in PARENT[:9]] + [51.0], "gain"),
    # 8 of 10 lower: too few pairs
    ([value - 5.0 for value in PARENT[:8]] + [48.5, 50.5], "unresolved"),
    # every pair lower, but the median gap (4.0) is inside the distance
    ([value - 4.0 for value in PARENT], "unresolved"),
    # the mirror cases
    ([value + 5.0 for value in PARENT], "loss"),
    ([value + 4.0 for value in PARENT], "unresolved"),
    # a tie counts for neither side
    (PARENT, "unresolved"),
])
def test_verdict(change, expected):
    assert verdict(PARENT, change) == expected


def test_a_tied_pair_is_not_won():
    """Nine of ten pairs lower and one tied is 9/10, a gain; eight lower
    and two tied is not."""
    parent = [10.0] * 10
    assert verdict(parent, [9.0] * 9 + [10.0]) == "gain"
    assert verdict(parent, [9.0] * 8 + [10.0] * 2) == "unresolved"
