"""Benchmark: regenerate Figure 2 (bubble statistics vs model size)."""

from __future__ import annotations

from repro.experiments import fig2


def test_fig2(record_output):
    data = fig2.run_spec(fig2.default_spec())
    record_output("fig2", fig2.render(data))
    rows = {row["model"]: row for row in data["by_model"]}
    # Bubble rate: 42.4% at 1.2B, falling only slightly to ~40% at 6B.
    assert abs(rows["1.2B"]["bubble_rate"] - 0.424) < 0.01
    assert rows["6B"]["bubble_rate"] < rows["1.2B"]["bubble_rate"]
    assert rows["1.2B"]["bubble_rate"] - rows["6B"]["bubble_rate"] < 0.05
    # Micro-batch 8 drops the rate to about 26.2%.
    assert abs(data["micro_batch_8"]["bubble_rate"] - 0.262) < 0.02
    # Epoch time and bubble time both fall with model size (Figure 2b).
    for series in ("epoch_time_s", "bubble_time_s"):
        values = [rows[m][series] for m in ("1.2B", "3.6B", "6B")]
        assert values == sorted(values, reverse=True)
    # Larger models leave less available bubble memory (Figure 2a).
    avail = {
        model: max(point[1] for point in rows[model]["points"])
        for model in rows
    }
    assert avail["6B"] < avail["3.6B"] < avail["1.2B"]
