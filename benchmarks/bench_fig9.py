"""Benchmark: regenerate Figure 9 (bubble time breakdown)."""

from __future__ import annotations

from repro.experiments import fig9


def test_fig9(record_output):
    data = fig9.run_spec(fig9.default_spec())
    record_output("fig9", fig9.render(data))
    rows = {row["task"]: row for row in data["rows"]}

    # Buckets are fractions that account for (almost) all bubble time.
    for task, row in rows.items():
        total = (row["running"] + row["freeride_runtime"]
                 + row["insufficient_time"] + row["no_task_oom"])
        assert 0.9 <= total <= 1.01, task

    # VGG19 and Image cannot use stages 0-1: about half the bubble time
    # is "No side task: OOM" (paper section 6.5).
    for task in ("vgg19", "image"):
        assert rows[task]["no_task_oom"] > 0.35, task
    for task in ("resnet18", "pagerank"):
        assert rows[task]["no_task_oom"] == 0.0, task

    # Short-step tasks pay proportionally more FreeRide runtime than
    # long-step tasks lose... and long-step tasks lose more to
    # insufficient tails (the PageRank vs Graph SGD contrast).
    assert rows["pagerank"]["freeride_runtime"] > rows["graph_sgd"]["freeride_runtime"]
    assert rows["graph_sgd"]["insufficient_time"] > rows["pagerank"]["insufficient_time"]

    # Most usable bubble time is actually used (paper: "Most of the
    # bubble time with enough available GPU memory size is used").
    assert rows["resnet18"]["running"] > 0.5
