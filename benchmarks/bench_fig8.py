"""Benchmark: regenerate Figure 8 (GPU resource limit demonstrations)."""

from __future__ import annotations

import pytest

from repro.experiments import fig8


def test_fig8(record_output):
    data = fig8.run_spec(fig8.default_spec())
    record_output("fig8", fig8.render(data))

    time_limit = data["time_limit"]
    # The runaway task is killed roughly one grace period after the
    # bubble's end (Figure 8a).
    assert time_limit["killed_at_s"] is not None
    assert time_limit["killed_at_s"] == pytest.approx(
        time_limit["bubble_end_s"] + time_limit["grace_period_s"], abs=0.15
    )
    assert "time limit" in time_limit["kill_reason"]
    # After the kill the side task's SM occupancy is zero.
    tail = [occ for t, occ in time_limit["occupancy"]
            if t > time_limit["killed_at_s"]]
    assert all(occ == 0.0 for occ in tail)

    memory_limit = data["memory_limit"]
    # The leaking task dies at its 8 GB cap and never exceeds it (8b).
    assert memory_limit["killed"]
    assert "OOM" in memory_limit["kill_reason"]
    assert memory_limit["peak_gb"] <= memory_limit["cap_gb"] + 1e-6
    assert memory_limit["memory"][-1][1] == 0.0
