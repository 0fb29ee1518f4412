"""Benchmark: the multi-job cluster sweep (one shared manager, N jobs).

A reduced slice of the registered `cluster` scenario — job count 1/2/3
under least-loaded assignment with the single-task mix — so the
baseline tracks a small cluster point without the full jobs x policy x
mix product.
"""

from __future__ import annotations

from repro.api import registry

REDUCED_SWEEP = {
    "sweep.axes": {
        "jobs": [1, 2, 3],
        "policy.assignment": ["least_loaded"],
        "workloads": [[{"name": "pagerank"}]],
    },
}


def _run():
    return registry.run("cluster", overrides=REDUCED_SWEEP)


def test_cluster(record_output):
    result = _run()
    record_output("cluster", result.render())
    rows = result.data["rows"]
    assert [row["jobs"] for row in rows] == [1, 2, 3]
    # The pool scales linearly with job count...
    assert [row["workers"] for row in rows] == [4, 8, 12]
    # ...and so does the harvested work, at roughly flat utilization.
    assert rows[2]["total_units"] > 2.5 * rows[0]["total_units"]
    for row in rows:
        assert 0.5 < row["utilization"] < 1.0
        assert row["mean_time_increase"] < 0.03
