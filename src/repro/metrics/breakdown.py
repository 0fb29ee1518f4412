"""Bubble-time breakdown (paper Figure 9).

Splits the total bubble time of a FreeRide run into four buckets:

* ``no_task_oom`` — bubbles on GPUs whose worker received no side task
  because the bubbles' available memory was too small (VGG19 and Image on
  stages 0-1);
* ``running`` — time side-task steps actually executed;
* ``freeride_runtime`` — interface overhead: per-step transition checks,
  per-bubble resume latency, init transfers, and manager/RPC latency;
* ``insufficient_time`` — bubble tails the program-directed limit left
  idle because the next step would not have fit.
"""

from __future__ import annotations

import dataclasses

from repro.core.middleware import FreeRideResult


@dataclasses.dataclass(frozen=True)
class BubbleBreakdown:
    """Fractions of total bubble time.

    The runtime bucket also takes whatever bubble time the counted
    buckets leave, clamped at zero, so the fractions sum to 1 up to
    rounding unless the counted running, overhead and insufficient time
    exceed the bubble time of the stages that ran tasks. Then the sum
    exceeds 1: on the one-task deployments of Figure 9 at seed 0,
    graph_sgd's sums to 1.0105 at 1 epoch and 1.0006 at 2, while at 8
    epochs and for the other five tasks it stays at 1 (pinned in
    ``tests/metrics/test_throughput_breakdown.py``). ROADMAP item 3 is
    to derive the buckets from bubble intervals instead of counters.
    """

    total_bubble_s: float
    running_s: float
    freeride_runtime_s: float
    insufficient_s: float
    no_task_oom_s: float

    def fractions(self) -> dict[str, float]:
        if self.total_bubble_s <= 0:
            return {
                "running": 0.0,
                "freeride_runtime": 0.0,
                "insufficient_time": 0.0,
                "no_task_oom": 0.0,
            }
        return {
            "running": self.running_s / self.total_bubble_s,
            "freeride_runtime": self.freeride_runtime_s / self.total_bubble_s,
            "insufficient_time": self.insufficient_s / self.total_bubble_s,
            "no_task_oom": self.no_task_oom_s / self.total_bubble_s,
        }


def bubble_breakdown(result: FreeRideResult) -> BubbleBreakdown:
    """Compute the Figure-9 buckets from a FreeRide run."""
    trace = result.training.trace
    stages_with_tasks = {report.stage for report in result.tasks}
    total = 0.0
    oom = 0.0
    for stage in range(trace.num_stages):
        stage_bubble = sum(
            bubble.duration for bubble in trace.bubbles_of(stage=stage)
        )
        total += stage_bubble
        if stage not in stages_with_tasks:
            oom += stage_bubble
    running = sum(report.running_s for report in result.tasks)
    explicit_overhead = sum(
        report.overhead_s + report.init_s for report in result.tasks
    )
    insufficient = sum(report.insufficient_s for report in result.tasks)
    # Whatever bubble time on task-bearing stages is neither running nor
    # insufficient nor explicitly counted is manager/RPC latency — charge
    # it to the runtime bucket, as the paper does.
    unaccounted = max(
        0.0, total - oom - running - insufficient - explicit_overhead
    )
    return BubbleBreakdown(
        total_bubble_s=total,
        running_s=min(running, total),
        freeride_runtime_s=explicit_overhead + unaccounted,
        insufficient_s=insufficient,
        no_task_oom_s=oom,
    )
