"""Table 2: time increase I and cost savings S per co-location method.

Four methods — FreeRide iterative, FreeRide imperative, raw Nvidia MPS,
and naive co-location — across the six side tasks plus the mixed workload
(PageRank, ResNet18, Image, VGG19 on the GPUs of stages 0-3).

The (task x method) product is the scenario's sweep grid; the baseline
training time is computed once and baked into the point specs.
"""

from __future__ import annotations

import dataclasses

from repro import calibration
from repro.api import registry
from repro.api.results import ResultRow
from repro.api.session import Session
from repro.api.spec import ScenarioSpec, SweepSpec, TrainingSpec, WorkloadSpec
from repro.baselines.colocation import run_colocation
from repro.experiments import common
from repro.metrics.cost import cost_savings, time_increase
from repro.workloads.registry import WORKLOAD_NAMES, workload_factory

METHODS = ("iterative", "imperative", "mps", "naive")


@dataclasses.dataclass(frozen=True)
class Cell(ResultRow):
    method: str
    task: str
    time_increase: float
    cost_savings: float


def default_spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="table2",
        kind="batch",
        training=TrainingSpec(epochs=common.DEFAULT_EPOCHS),
        workloads=(WorkloadSpec(name="resnet18"),),
        sweep=SweepSpec(axes={
            "workloads.0.name": WORKLOAD_NAMES,
            "params.method": METHODS,
        }),
        params={"include_mixed": True},
    )


def _method_cell(spec: ScenarioSpec) -> Cell:
    """One (task, method) cell; runs in a sweep worker."""
    name = spec.workloads[0].name
    method = spec.param("method")
    t_no = spec.param("t_no")
    if method in ("iterative", "imperative"):
        result = Session(
            spec.override({"workloads.0.interface": method})
        ).run().results()
    else:
        result = run_colocation(spec.train_config(), workload_factory(name),
                                mode=method)
    profile = calibration.SIDE_TASK_PROFILES[name]
    return Cell(
        method=method,
        task=name,
        time_increase=time_increase(result.training.total_time, t_no),
        cost_savings=cost_savings(
            t_no, result.training.total_time,
            [(result.total_units, profile)],
        ),
    )


def _mixed_cells(spec: ScenarioSpec, t_no: float) -> list[Cell]:
    """The mixed workload: one task per stage (paper section 6.2)."""
    mixed = calibration.MIXED_WORKLOAD_BY_STAGE
    config = spec.train_config()
    cells = []
    for interface in ("iterative", "imperative"):
        mixed_spec = dataclasses.replace(
            spec,
            sweep=None,
            workloads=tuple(
                WorkloadSpec(name=name, interface=interface, replicate=False)
                for name in mixed
            ),
        )
        result = Session(mixed_spec).run().results()
        work = [
            (report.units_done,
             calibration.SIDE_TASK_PROFILES[mixed[report.stage]])
            for report in result.tasks
        ]
        cells.append(Cell(
            method=interface,
            task="mixed",
            time_increase=time_increase(result.training.total_time, t_no),
            cost_savings=cost_savings(t_no, result.training.total_time, work),
        ))
    for mode in ("mps", "naive"):
        placement = [
            (stage, workload_factory(name))
            for stage, name in enumerate(mixed)
        ]
        result = run_colocation(config, mode=mode, placement=placement)
        work = [
            (report.units_done, calibration.SIDE_TASK_PROFILES[report.name])
            for report in result.tasks
        ]
        cells.append(Cell(
            method=mode,
            task="mixed",
            time_increase=time_increase(result.training.total_time, t_no),
            cost_savings=cost_savings(t_no, result.training.total_time, work),
        ))
    return cells


def run_spec(spec: ScenarioSpec) -> dict:
    t_no = common.baseline_time(spec.train_config())
    cells: list[Cell] = common.sweep(
        spec.sweep_points({"params.t_no": t_no}), _method_cell
    )
    if spec.param("include_mixed", True):
        cells.extend(_mixed_cells(spec, t_no))
    return {"cells": cells, "baseline_time_s": t_no}


def render(data: dict) -> str:
    tasks = []
    for cell in data["cells"]:
        if cell.task not in tasks:
            tasks.append(cell.task)
    by_key = {(cell.task, cell.method): cell for cell in data["cells"]}
    rows = []
    for task in tasks:
        row = [task]
        for method in METHODS:
            cell = by_key.get((task, method))
            if cell is None:
                row.extend(["-", "-"])
            else:
                row.extend([common.pct(cell.time_increase),
                            common.pct(cell.cost_savings)])
        rows.append(row)
    return common.render_table(
        "Table 2: time increase I (lower better) / cost savings S "
        "(higher better)",
        ["side task",
         "iter I", "iter S",
         "imper I", "imper S",
         "MPS I", "MPS S",
         "naive I", "naive S"],
        rows,
    )


def rows(data: dict) -> list[Cell]:
    return list(data["cells"])


registry.register(
    "table2",
    "Time increase I and cost savings S for all tasks and baselines",
    default_spec, run_spec, render, rows,
)
