"""Benchmark: regenerate Table 1 (throughput vs dedicated platforms)."""

from __future__ import annotations

from repro.experiments import table1


def test_table1(record_output):
    data = table1.run_spec(table1.default_spec())
    record_output("table1", table1.render(data))
    rows = {row.name: row for row in data["rows"]}
    # Paper: 1.06-2.82x a standalone Server-II, 7-59.9x the CPU server.
    for row in rows.values():
        assert 1.0 <= row.speedup_vs_server_ii <= 3.2, row
        assert 5.0 <= row.speedup_vs_cpu <= 70.0, row
    # PageRank and Graph SGD benefit most vs Server-II (paper Table 1).
    assert rows["pagerank"].speedup_vs_server_ii > rows["resnet18"].speedup_vs_server_ii
    assert rows["graph_sgd"].speedup_vs_server_ii > rows["vgg19"].speedup_vs_server_ii
