"""Benchmark: the online serving capacity sweep (`freeride serve`)."""

from __future__ import annotations

from repro.experiments import serve


def test_serve(record_output):
    data = serve.run_spec(serve.default_spec())
    record_output("serve", serve.render(data))

    rows = data["rows"]
    assert len(rows) == (len(serve.ARRIVAL_RATES) * len(serve.ADMISSIONS)
                         * len(serve.POLICIES))
    by_key = {(row["rate"], row["admission"], row["policy"]): row
              for row in rows}
    top_rate = max(serve.ARRIVAL_RATES)

    # Offered load is open-loop: identical across policy pairs at a rate.
    for rate in serve.ARRIVAL_RATES:
        offered = {row["offered"] for row in rows if row["rate"] == rate}
        assert len(offered) == 1

    # At saturation, token-bucket admission sheds far more load than
    # always-admit, and in exchange bounds completion latency.
    always = by_key[(top_rate, "always", "least_loaded")]
    bucket = by_key[(top_rate, "token_bucket", "least_loaded")]
    assert bucket["rejection_rate"] > always["rejection_rate"] + 0.3
    assert bucket["completion_p95"] < always["completion_p95"]
    # Everything the bucket admits completes within its SLO.
    assert bucket["slo_met"] == bucket["completed"]

    # Serving side tasks must not slow training measurably (paper's I).
    assert all(row["time_increase"] < 0.05 for row in rows)
