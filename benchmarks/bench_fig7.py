"""Benchmark: regenerate Figure 7 (sensitivity studies)."""

from __future__ import annotations

from repro.experiments import fig7


def test_fig7_batch_sizes(record_output):
    points = fig7.batch_sweep(fig7.default_spec())
    record_output(
        "fig7_batch",
        fig7._sweep_table("Figure 7(a,b): varying side-task batch size",
                          points, "batch"),
    )
    # Time increase stays around 1% at every batch size (paper 7a).
    assert all(point.time_increase < 0.03 for point in points)
    # Savings are positive wherever Server-II can host the config.
    assert all(point.cost_savings > 0 for point in points if not point.oom)
    # OOM cells exist: VGG19 at batch 96/128 exceeds Server-II's 10 GB.
    oom = {(p.task, p.x) for p in points if p.oom}
    assert ("vgg19", 96) in oom and ("vgg19", 128) in oom
    assert ("resnet18", 128) not in oom


def test_fig7_model_sizes(record_output):
    points = fig7.model_size_sweep(fig7.default_spec())
    record_output(
        "fig7_model",
        fig7._sweep_table("Figure 7(c,d): varying model size", points,
                          "model"),
    )
    assert all(point.time_increase < 0.03 for point in points)
    by_task = {}
    for point in points:
        by_task.setdefault(point.task, {})[point.x] = point.cost_savings
    # Larger models leave shorter bubbles: savings shrink 1.2B -> 6B
    # for most tasks (paper 7d shows the same downward trend).
    falling = sum(
        1 for task, series in by_task.items()
        if series["6B"] < series["1.2B"]
    )
    assert falling >= 4


def test_fig7_micro_batches(record_output):
    points = fig7.micro_batch_sweep(fig7.default_spec())
    record_output(
        "fig7_micro",
        fig7._sweep_table("Figure 7(e,f): varying micro-batch number",
                          points, "micro-batches"),
    )
    assert all(point.time_increase < 0.03 for point in points)
    by_task = {}
    for point in points:
        by_task.setdefault(point.task, {})[point.x] = point.cost_savings
    # More micro-batches -> lower bubble rate -> lower savings (paper 7f).
    for task, series in by_task.items():
        assert series[8] < series[4], task
