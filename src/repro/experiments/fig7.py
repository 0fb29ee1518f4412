"""Figure 7: sensitivity studies of FreeRide (iterative interface).

(a, b) side-task batch size 16-128 for the model-training tasks — time
increase stays around 1%, savings 3.4-7.5%, with OOM cells where
Server-II cannot hold the configuration;
(c, d) model size 1.2B / 3.6B / 6B for all six tasks;
(e, f) micro-batch number 4 / 6 / 8 — more micro-batches, fewer bubbles,
lower savings.

Three sweeps over one base scenario: each point is a self-contained
``batch``-kind spec (swept axis + precomputed baseline time baked into
``params``) shipped to the pool by the shared sweep executor.
"""

from __future__ import annotations

import dataclasses

from repro import calibration
from repro.api import registry
from repro.api.results import ResultRow
from repro.api.session import Session
from repro.api.spec import ScenarioSpec, TrainingSpec, WorkloadSpec
from repro.baselines.dedicated import run_dedicated
from repro.experiments import common
from repro.metrics.cost import cost_savings, time_increase
from repro.workloads.registry import WORKLOAD_NAMES, make_workload

BATCH_SIZES = (16, 32, 64, 96, 128)
MODEL_SIZES = ("1.2B", "3.6B", "6B")
MICRO_BATCH_NUMBERS = (4, 6, 8)
MODEL_TASKS = ("resnet18", "resnet50", "vgg19")
SWEEP_EPOCHS = 4


@dataclasses.dataclass(frozen=True)
class Point(ResultRow):
    task: str
    x: object
    time_increase: float
    cost_savings: float | None  # None = OOM on Server-II
    oom: bool = False
    #: which of the three sweeps the point belongs to (set on export)
    sweep: str = ""


def default_spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="fig7",
        kind="batch",
        training=TrainingSpec(epochs=SWEEP_EPOCHS),
        workloads=(WorkloadSpec(name="resnet18"),),
        # Three sweeps share one base scenario, so the grids live in
        # params rather than the single `sweep` slot.
        params={
            "batch_sizes": list(BATCH_SIZES),
            "model_sizes": list(MODEL_SIZES),
            "micro_batch_numbers": list(MICRO_BATCH_NUMBERS),
            "model_tasks": list(MODEL_TASKS),
            "tasks": list(WORKLOAD_NAMES),
        },
    )


def _measure(spec: ScenarioSpec) -> Point:
    """One batch-sweep point; module-level so pool workers can unpickle it."""
    workload = spec.workloads[0]
    name, batch_size = workload.name, workload.batch_size
    t_no = spec.param("t_no")
    result = Session(spec).run().results()
    increase = time_increase(result.training.total_time, t_no)
    profile = make_workload(name, batch_size=batch_size).perf
    # The paper's base (batch-64) configurations all run on Server-II by
    # construction; its OOM cells appear only when the sweep grows the
    # batch beyond that, so the memory constraint binds only there.
    dedicated = run_dedicated(
        make_workload(name, batch_size=batch_size), "server_ii",
        duration_s=20.0, enforce_memory=batch_size > 64,
    )
    if dedicated.oom:
        # "the GPU in Server-II does not have enough GPU memory ... so the
        # cost savings cannot be calculated" (paper section 6.3).
        return Point(task=name, x=batch_size, time_increase=increase,
                     cost_savings=None, oom=True)
    savings = cost_savings(
        t_no, result.training.total_time, [(result.total_units, profile)]
    )
    return Point(task=name, x=batch_size, time_increase=increase,
                 cost_savings=savings)


def batch_sweep(spec: ScenarioSpec) -> list[Point]:
    t_no = common.baseline_time(spec.train_config())
    points = [
        {"workloads.0.name": name, "workloads.0.batch_size": batch_size,
         "params.t_no": t_no}
        for name in spec.param("model_tasks", MODEL_TASKS)
        for batch_size in spec.param("batch_sizes", BATCH_SIZES)
    ]
    return common.sweep(spec.with_points(points), _measure)


def _sized_point(spec: ScenarioSpec) -> Point:
    """One model-size / micro-batch point; runs in a sweep worker."""
    name = spec.workloads[0].name
    result = Session(spec).run().results()
    profile = calibration.SIDE_TASK_PROFILES[name]
    t_no = spec.param("t_no")
    return Point(
        task=name,
        x=spec.param("x"),
        time_increase=time_increase(result.training.total_time, t_no),
        cost_savings=cost_savings(
            t_no, result.training.total_time,
            [(result.total_units, profile)],
        ),
    )


def model_size_sweep(spec: ScenarioSpec) -> list[Point]:
    # Baselines computed once in the parent and baked into the point
    # specs — no reliance on fork inheritance of the lru caches.
    baselines = {
        size: common.baseline_time(
            spec.override({"training.model": size}).train_config())
        for size in spec.param("model_sizes", MODEL_SIZES)
    }
    points = [
        {"training.model": size, "workloads.0.name": name,
         "params.x": size, "params.t_no": baselines[size]}
        for size in spec.param("model_sizes", MODEL_SIZES)
        for name in spec.param("tasks", WORKLOAD_NAMES)
    ]
    return common.sweep(spec.with_points(points), _sized_point)


def micro_batch_sweep(spec: ScenarioSpec) -> list[Point]:
    baselines = {
        micro_batches: common.baseline_time(
            spec.override({"training.micro_batches": micro_batches})
            .train_config())
        for micro_batches in spec.param("micro_batch_numbers",
                                        MICRO_BATCH_NUMBERS)
    }
    points = [
        {"training.micro_batches": micro_batches, "workloads.0.name": name,
         "params.x": micro_batches, "params.t_no": baselines[micro_batches]}
        for micro_batches in spec.param("micro_batch_numbers",
                                        MICRO_BATCH_NUMBERS)
        for name in spec.param("tasks", WORKLOAD_NAMES)
    ]
    return common.sweep(spec.with_points(points), _sized_point)


def run_spec(spec: ScenarioSpec) -> dict:
    return {
        "batch_sweep": batch_sweep(spec),
        "model_size_sweep": model_size_sweep(spec),
        "micro_batch_sweep": micro_batch_sweep(spec),
    }


def _sweep_table(title: str, points: list[Point], x_name: str) -> str:
    rows = [
        [
            point.task,
            str(point.x),
            common.pct(point.time_increase),
            "OOM" if point.oom else common.pct(point.cost_savings),
        ]
        for point in points
    ]
    return common.render_table(
        title, ["side task", x_name, "time increase I", "cost savings S"],
        rows,
    )


def render(data: dict) -> str:
    return "\n\n".join([
        _sweep_table("Figure 7(a,b): varying side-task batch size",
                     data["batch_sweep"], "batch"),
        _sweep_table("Figure 7(c,d): varying model size",
                     data["model_size_sweep"], "model"),
        _sweep_table("Figure 7(e,f): varying micro-batch number",
                     data["micro_batch_sweep"], "micro-batches"),
    ])


def rows(data: dict) -> list[Point]:
    return [
        dataclasses.replace(point, sweep=sweep_name)
        for sweep_name in ("batch_sweep", "model_size_sweep",
                           "micro_batch_sweep")
        for point in data[sweep_name]
    ]


registry.register(
    "fig7",
    "Sensitivity sweeps: batch size, model size, micro-batch count",
    default_spec, run_spec, render, rows,
)
