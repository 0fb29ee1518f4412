"""Table 1: side-task throughput on bubbles vs dedicated platforms.

"FreeRide harvests GPU resources that support a throughput of 1.06-2.82x
of a standalone lower-tier GPU, and 7-59.9x of the CPU" — the FreeRide
column is the aggregate across the standard deployment (the same task on
every worker with enough bubble memory), compared against the task alone
on one Server-II GPU and on the CPU server.

The per-task sweep is the scenario's grid: one ``batch``-kind point spec
per side task, each carrying the dedicated-baseline run length.
"""

from __future__ import annotations

from repro.api import registry
from repro.api.session import Session
from repro.api.spec import ScenarioSpec, SweepSpec, TrainingSpec, WorkloadSpec
from repro.baselines.dedicated import run_dedicated
from repro.experiments import common
from repro.metrics.throughput import throughput_row
from repro.workloads.registry import WORKLOAD_NAMES, make_workload


def default_spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="table1",
        kind="batch",
        training=TrainingSpec(epochs=common.DEFAULT_EPOCHS),
        workloads=(WorkloadSpec(name="resnet18"),),
        sweep=SweepSpec(points=tuple(
            {"workloads.0.name": name} for name in WORKLOAD_NAMES
        )),
        params={"dedicated_duration_s": 30.0},
    )


def _task_row(spec: ScenarioSpec):
    """One task's row; module-level so pool workers can unpickle it."""
    name = spec.workloads[0].name
    duration_s = spec.param("dedicated_duration_s", 30.0)
    freeride = Session(spec).run().results()
    server_ii = run_dedicated(make_workload(name), "server_ii",
                              duration_s=duration_s)
    cpu = run_dedicated(make_workload(name), "cpu", duration_s=duration_s)
    return throughput_row(
        name,
        make_workload(name).perf,
        units_done=freeride.total_units,
        duration_s=freeride.training.total_time,
        server_ii_throughput=server_ii.throughput,
        cpu_throughput=cpu.throughput,
    )


def run_spec(spec: ScenarioSpec) -> dict:
    return {"rows": common.sweep(spec.sweep_points(), _task_row)}


def render(data: dict) -> str:
    rows = [
        [
            row.name,
            f"{row.freeride_iterative:.1f}",
            f"{row.server_ii:.1f}",
            f"{row.server_cpu:.1f}",
            f"{row.speedup_vs_server_ii:.2f}x",
            f"{row.speedup_vs_cpu:.1f}x",
        ]
        for row in data["rows"]
    ]
    return common.render_table(
        "Table 1: throughput (units/s) — FreeRide iterative vs dedicated",
        ["side task", "Iterative", "Server-II", "Server-CPU",
         "vs Server-II", "vs CPU"],
        rows,
    )


def rows(data: dict) -> list:
    return list(data["rows"])


registry.register(
    "table1",
    "Side-task throughput: FreeRide vs dedicated GPU vs CPU",
    default_spec, run_spec, render, rows,
)
