"""Benchmark: regenerate Figure 1 (pipeline epoch + memory utilization)."""

from __future__ import annotations

from repro.experiments import fig1


def test_fig1(record_output):
    data = fig1.run_spec(fig1.default_spec())
    record_output("fig1", fig1.render(data))
    stages = {row["stage"]: row for row in data["stages"]}
    # The paper's Figure 1 annotations, verbatim.
    assert stages[0]["pattern"] == "B C C C"
    assert stages[1]["pattern"] == "A B C C A"
    assert set(stages[3]["pattern"].split()) == {"A"}
    # Memory: used falls / available rises from stage 0 to 3.
    used = [stages[s]["used_gb"] for s in range(4)]
    assert used == sorted(used, reverse=True)
    assert stages[0]["available_gb"] <= 3.0 + 1e-6
    assert stages[3]["available_gb"] > 20.0
