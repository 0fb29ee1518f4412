"""Typed results for cluster runs.

A :class:`ClusterResult` reports one multi-job deployment: per-job
training outcomes (:class:`JobResult`), the flat side-task reports over
the combined worker pool (stages are *global* worker indices), the
manager's rejections, and — when the run served open-loop traffic —
the request records and serving metrics.

Utilization is the cluster's headline number: of all the bubble seconds
the jobs produced, how many were actually spent running side tasks.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.core.middleware import TaskReport
from repro.pipeline.engine import TrainingResult

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.metrics.fairness import FairnessMetrics
    from repro.metrics.latency import ServingMetrics
    from repro.metrics.resilience import ResilienceMetrics
    from repro.obs.export import TraceResult
    from repro.serving.frontend import RequestRecord


@dataclasses.dataclass
class JobResult:
    """One training job's share of a cluster run."""

    name: str
    training: TrainingResult
    #: this job's first global worker index (its stage 0)
    stage_offset: int
    num_stages: int
    #: side-task reports whose worker belongs to this job
    tasks: "list[TaskReport]" = dataclasses.field(default_factory=list)

    @property
    def bubble_time_s(self) -> float:
        """Total bubble seconds this job's training produced."""
        return sum(
            bubble.duration for bubble in self.training.trace.bubbles
        )

    @property
    def harvested_s(self) -> float:
        """Side-task running seconds on this job's workers."""
        return sum(report.running_s for report in self.tasks)

    @property
    def utilization(self) -> float:
        """Fraction of this job's bubble time spent running side tasks."""
        bubble_s = self.bubble_time_s
        return self.harvested_s / bubble_s if bubble_s > 0 else 0.0


@dataclasses.dataclass
class ClusterResult:
    """Outcome of one multi-job cluster run."""

    jobs: "list[JobResult]"
    #: every submitted side task, stage = global worker index
    tasks: "list[TaskReport]"
    rejections: "list[tuple[str, str]]"
    #: set when the run served open-loop traffic through the frontend
    records: "list[RequestRecord] | None" = None
    metrics: "ServingMetrics | None" = None
    open_duration_s: "float | None" = None
    #: per-tenant fairness accounting (set when the traffic was tenanted)
    fairness: "FairnessMetrics | None" = None
    #: failure/recovery accounting (set when the spec had a faults section)
    resilience: "ResilienceMetrics | None" = None
    #: structured span trace (set when the spec enabled ``obs.trace``)
    trace: "TraceResult | None" = None

    # -- aggregates -----------------------------------------------------
    @property
    def total_units(self) -> float:
        return sum(report.units_done for report in self.tasks)

    @property
    def total_steps(self) -> int:
        return sum(report.steps_done for report in self.tasks)

    @property
    def total_bubble_s(self) -> float:
        return sum(job.bubble_time_s for job in self.jobs)

    @property
    def harvested_s(self) -> float:
        return sum(report.running_s for report in self.tasks)

    @property
    def utilization(self) -> float:
        """Cluster-wide bubble utilization: harvested / produced."""
        bubble_s = self.total_bubble_s
        return self.harvested_s / bubble_s if bubble_s > 0 else 0.0

    def job(self, name: str) -> JobResult:
        for job in self.jobs:
            if job.name == name:
                return job
        raise KeyError(name)

    def task(self, name: str) -> TaskReport:
        for report in self.tasks:
            if report.name == name:
                return report
        raise KeyError(name)
