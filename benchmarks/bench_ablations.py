"""Benchmark: ablations of FreeRide's design choices (DESIGN.md section 7)."""

from __future__ import annotations

from repro.experiments import ablations


def test_grace_period_ablation(record_output):
    rows = ablations.grace_sweep(ablations.default_spec())
    record_output("ablation_grace", str(rows))
    # Every grace period eventually kills the runaway task...
    assert all(row["killed"] for row in rows)
    # ...and the trespass time grows with the grace period.
    trespass = [row["trespass_s"] for row in rows]
    assert trespass == sorted(trespass)
    for row in rows:
        assert row["trespass_s"] >= row["grace_s"] - 0.05


def test_rpc_latency_ablation(record_output):
    rows = ablations.rpc_latency_sweep(ablations.default_spec())
    record_output("ablation_rpc", str(rows))
    # Slower RPCs harvest less work.
    assert rows[0]["units"] >= rows[-1]["units"]
    # Overhead stays low across two orders of magnitude of latency.
    assert all(row["time_increase"] < 0.05 for row in rows)


def test_policy_ablation(record_output):
    rows = ablations.policy_sweep(ablations.default_spec())
    record_output("ablation_policy", str(rows))
    by_name = {row["policy"]: row for row in rows}
    # The paper's least-loaded rule spreads tasks across workers...
    assert by_name["least_loaded"]["distinct_workers"] >= 3
    # ...while best-fit packs them more tightly.
    assert (by_name["best_fit"]["distinct_workers"]
            <= by_name["least_loaded"]["distinct_workers"])


def test_step_granularity_ablation(record_output):
    rows = ablations.granularity_sweep(ablations.default_spec())
    record_output("ablation_step", str(rows))
    # Finer steps -> more interface overhead; coarser -> more bubble-tail
    # waste (Figure 9's PageRank-vs-SGD effect, made explicit).
    assert rows[0]["overhead_s"] > rows[-1]["overhead_s"]
    assert rows[-1]["insufficient_s"] > rows[0]["insufficient_s"]


def test_schedule_ablation(record_output):
    rows = ablations.schedule_sweep(ablations.default_spec())
    record_output("ablation_schedule", str(rows))
    by_name = {row["schedule"]: row for row in rows}
    # Both schedules leave large bubbles; 1F1B is what the paper measures.
    assert 0.35 < by_name["1f1b"]["bubble_rate"] < 0.45
    assert by_name["gpipe"]["bubble_rate"] > 0.3
