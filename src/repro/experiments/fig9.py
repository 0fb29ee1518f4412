"""Figure 9: bubble time breakdown under the iterative interface.

For each side task (and the mixed workload): how much of the total bubble
time went to running steps, to FreeRide runtime, to tails too short for
another step, and to bubbles left unused because the task did not fit the
stage's memory ("No side task: OOM" — half the bubble time for VGG19 and
Image, which exceed the bubbles of stages 0 and 1).

The per-task sweep is the scenario's grid; the mixed row is a second,
non-replicated ``batch`` scenario (one task per stage) run through the
Session API.
"""

from __future__ import annotations

import dataclasses

from repro import calibration
from repro.api import registry
from repro.api.results import ResultRow
from repro.api.session import Session
from repro.api.spec import ScenarioSpec, SweepSpec, TrainingSpec, WorkloadSpec
from repro.experiments import common
from repro.metrics.breakdown import bubble_breakdown
from repro.workloads.registry import WORKLOAD_NAMES


@dataclasses.dataclass(frozen=True)
class BreakdownRow(ResultRow):
    """One task's bubble-time fractions."""

    task: str
    running: float
    freeride_runtime: float
    insufficient_time: float
    no_task_oom: float


def default_spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="fig9",
        kind="batch",
        training=TrainingSpec(epochs=common.DEFAULT_EPOCHS),
        workloads=(WorkloadSpec(name="resnet18"),),
        sweep=SweepSpec(points=tuple(
            {"workloads.0.name": name} for name in WORKLOAD_NAMES
        )),
        params={"include_mixed": True},
    )


def _task_row(spec: ScenarioSpec) -> dict:
    """One task's breakdown; module-level so pool workers unpickle it."""
    name = spec.workloads[0].name
    result = Session(spec).run().results()
    return {"task": name, **bubble_breakdown(result).fractions()}


def _mixed_row(spec: ScenarioSpec) -> dict:
    """The mixed workload (one task per stage), as a Session run."""
    mixed_spec = dataclasses.replace(
        spec,
        sweep=None,
        workloads=tuple(
            WorkloadSpec(name=name, replicate=False)
            for name in calibration.MIXED_WORKLOAD_BY_STAGE
        ),
    )
    result = Session(mixed_spec).run().results()
    return {"task": "mixed", **bubble_breakdown(result).fractions()}


def run_spec(spec: ScenarioSpec) -> dict:
    rows = common.sweep(spec.sweep_points(), _task_row)
    if spec.param("include_mixed", True):
        rows.append(_mixed_row(spec))
    return {"rows": rows}


def render(data: dict) -> str:
    rows = [
        [
            row["task"],
            common.pct(row["running"]),
            common.pct(row["freeride_runtime"]),
            common.pct(row["insufficient_time"]),
            common.pct(row["no_task_oom"]),
        ]
        for row in data["rows"]
    ]
    return common.render_table(
        "Figure 9: bubble time breakdown (fractions of total bubble time)",
        ["side task", "running", "FreeRide runtime", "insufficient time",
         "no task (OOM)"],
        rows,
    )


def rows(data: dict) -> list[BreakdownRow]:
    return [BreakdownRow(**row) for row in data["rows"]]


registry.register(
    "fig9",
    "Bubble-time breakdown (running / overhead / insufficient / OOM)",
    default_spec, run_spec, render, rows,
)
