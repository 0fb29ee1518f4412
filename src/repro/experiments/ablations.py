"""Ablations of FreeRide's design choices (beyond the paper's figures).

* **grace period** — shorter graces kill misbehaving tasks sooner (less
  training interference) but risk killing slow-but-honest pauses;
* **RPC latency** — the manager's reaction time bounds how much of each
  bubble is usable and how far steps overrun the end;
* **assignment policy** — Algorithm 1's least-loaded rule vs first-fit /
  best-fit / worst-fit on a heterogeneous task mix;
* **step granularity** — finer steps utilize bubble tails better but pay
  more interface overhead (the PageRank effect of Figure 9);
* **schedule** — 1F1B vs GPipe bubble structure.

Five sub-sweeps over one base scenario: each swept knob is a real spec
field (``policy.grace_period_s``, ``policy.rpc_latency_s``,
``policy.assignment``, ``training.schedule``) or a params entry
(``step_scale``), so every ablation point is a self-contained spec.
"""

from __future__ import annotations

import dataclasses

from repro import calibration
from repro.api import registry
from repro.api.session import Session
from repro.api.spec import ScenarioSpec, TrainingSpec, WorkloadSpec
from repro.experiments import common
from repro.gpu.cluster import make_server_i
from repro.metrics.cost import time_increase
from repro.pipeline.analysis import bubble_rate
from repro.sim.engine import Engine
from repro.sim.rng import RandomStreams
from repro.workloads.model_training import ModelTrainingTask

GRACE_PERIODS = (0.1, 0.25, 0.5, 1.0)
RPC_LATENCIES = (0.0001, 0.001, 0.005, 0.02)
STEP_SCALES = (0.3, 1.0, 3.0, 10.0)
#: the paper-era policies, pinned explicitly: the registry has since
#: grown deadline-aware serving policies, which degenerate to
#: least-loaded on this deadline-less batch workload and would only
#: duplicate rows here (the serve experiment compares them under load)
ABLATION_POLICIES = ("least_loaded", "first_fit", "best_fit", "worst_fit")


def default_spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="ablations",
        kind="batch",
        training=TrainingSpec(epochs=4),
        workloads=(WorkloadSpec(name="resnet18"),),
        params={
            "grace_periods": list(GRACE_PERIODS),
            "rpc_latencies": list(RPC_LATENCIES),
            "policies": list(ABLATION_POLICIES),
            "step_scales": list(STEP_SCALES),
            "schedules": ["1f1b", "gpipe"],
            "policy_tasks": ["pagerank", "resnet18", "resnet50", "pagerank"],
        },
    )


def _grace_row(spec: ScenarioSpec) -> dict:
    from repro.core.manager import SideTaskManager
    from repro.core.profiler import profile_side_task
    from repro.core.task_spec import TaskSpec
    from repro.core.worker import ManagedBubble, SideTaskWorker
    from repro.workloads.misbehaving import NonPausingTask

    sim = Engine()
    server = make_server_i(sim)
    worker = SideTaskWorker(sim, server.gpu(0), 0,
                            side_task_memory_gb=20.0, mps=server.mps,
                            rng=RandomStreams(spec.seed))
    manager = SideTaskManager(sim, [worker], **spec.policy.freeride_kwargs())
    grace = manager.grace_period_s
    profile = profile_side_task(NonPausingTask(), interface="iterative")
    # Explicit name: the default embeds a process-global counter, which
    # would make the row depend on whether it runs serially or in a pool
    # worker (the name seeds the task's jitter stream).
    manager.submit(TaskSpec(workload=NonPausingTask(), profile=profile,
                            name=f"nonpausing-grace{grace:g}"))
    runtime = worker.all_tasks[0]
    sim.run(until=sim.now + 1.0)
    bubble_end = sim.now + 0.65
    manager.add_bubble(ManagedBubble(stage=0, start=sim.now,
                                     expected_end=bubble_end,
                                     available_gb=20.0))
    sim.run(until=sim.now + 8.0)
    stopped = [when for when, state in runtime.machine.history
               if state.value == "STOPPED"]
    return {
        "grace_s": grace,
        "killed": not runtime.proc.alive,
        "trespass_s": (stopped[-1] - bubble_end) if stopped else None,
    }


def grace_sweep(spec: ScenarioSpec) -> list[dict]:
    """Kill latency of the framework-enforced limit vs the grace period.

    A longer grace tolerates slow-but-honest pauses; a shorter one bounds
    how long a runaway side task can trespass on training time.
    """
    points = [{"policy.grace_period_s": grace}
              for grace in spec.param("grace_periods", GRACE_PERIODS)]
    return common.sweep(spec.with_points(points), _grace_row)


def _rpc_latency_row(spec: ScenarioSpec) -> dict:
    result = Session(spec).run().results()
    return {
        "rpc_latency_s": spec.policy.rpc_latency_s,
        "time_increase": time_increase(result.training.total_time,
                                       spec.param("t_no")),
        "units": result.total_units,
    }


def rpc_latency_sweep(spec: ScenarioSpec) -> list[dict]:
    t_no = common.baseline_time(spec.train_config())
    points = [{"policy.rpc_latency_s": latency, "params.t_no": t_no}
              for latency in spec.param("rpc_latencies", RPC_LATENCIES)]
    return common.sweep(spec.with_points(points), _rpc_latency_row)


def _policy_row(spec: ScenarioSpec) -> dict:
    session = Session(dataclasses.replace(spec, workloads=()))
    for task in spec.param("policy_tasks", ()):
        session.submit(WorkloadSpec(name=task, replicate=False))
    result = session.run().results()
    stages = sorted(report.stage for report in result.tasks)
    return {
        "policy": spec.policy.assignment,
        "placement": stages,
        "distinct_workers": len(set(stages)),
        "units": result.total_units,
    }


def policy_sweep(spec: ScenarioSpec) -> list[dict]:
    points = [{"policy.assignment": name}
              for name in spec.param("policies", ABLATION_POLICIES)]
    return common.sweep(spec.with_points(points), _policy_row)


def _granularity_row(spec: ScenarioSpec) -> dict:
    scale = spec.param("step_scale", 1.0)
    base = calibration.RESNET18
    perf = dataclasses.replace(
        base,
        step_time_s=base.step_time_s * scale,
        units_per_step=base.units_per_step * scale,
    )
    # A scaled synthetic task has no registry name, so this row submits
    # it to the session's pool rather than through a WorkloadSpec.
    session = Session(dataclasses.replace(spec, workloads=()))
    session.runner.prepare()
    session.runner.pool.submit_replicated(
        lambda perf=perf: ModelTrainingTask(perf))
    result = session.run().results()
    running = sum(report.running_s for report in result.tasks)
    overhead = sum(report.overhead_s for report in result.tasks)
    insufficient = sum(report.insufficient_s for report in result.tasks)
    return {
        "step_s": perf.step_time_s,
        "units_per_s": result.total_units / result.training.total_time,
        "running_s": running,
        "overhead_s": overhead,
        "insufficient_s": insufficient,
    }


def granularity_sweep(spec: ScenarioSpec) -> list[dict]:
    """Scale ResNet18's step size; measure utilization vs overhead."""
    points = [{"params.step_scale": scale}
              for scale in spec.param("step_scales", STEP_SCALES)]
    return common.sweep(spec.with_points(points), _granularity_row)


def _schedule_row(spec: ScenarioSpec) -> dict:
    result = Session(spec).run().results()
    return {
        "schedule": spec.training.schedule,
        "epoch_time_s": result.trace.mean_epoch_time(),
        "bubble_rate": bubble_rate(result.trace),
    }


def schedule_sweep(spec: ScenarioSpec) -> list[dict]:
    points = [{"kind": "pipeline", "training.schedule": schedule}
              for schedule in spec.param("schedules", ("1f1b", "gpipe"))]
    return common.sweep(spec.with_points(points), _schedule_row)


def run_spec(spec: ScenarioSpec) -> dict:
    return {
        "grace_period": grace_sweep(spec),
        "rpc_latency": rpc_latency_sweep(spec),
        "policies": policy_sweep(spec),
        "step_granularity": granularity_sweep(spec),
        "schedules": schedule_sweep(spec),
    }


def render(data: dict) -> str:
    sections = []
    sections.append(common.render_table(
        "Ablation: grace period of the framework-enforced limit",
        ["grace (s)", "killed", "trespass beyond bubble end (s)"],
        [[f"{row['grace_s']:g}", str(row["killed"]),
          f"{row['trespass_s']:.2f}" if row["trespass_s"] is not None else "-"]
         for row in data["grace_period"]],
    ))
    sections.append(common.render_table(
        "Ablation: RPC latency",
        ["latency (s)", "time increase", "units"],
        [[f"{row['rpc_latency_s']:g}", common.pct(row["time_increase"]),
          f"{row['units']:.0f}"] for row in data["rpc_latency"]],
    ))
    sections.append(common.render_table(
        "Ablation: assignment policy (pagerank, resnet18, resnet50, pagerank)",
        ["policy", "placement (stages)", "distinct workers", "units"],
        [[row["policy"], str(row["placement"]),
          str(row["distinct_workers"]), f"{row['units']:.0f}"]
         for row in data["policies"]],
    ))
    sections.append(common.render_table(
        "Ablation: step granularity (ResNet18 variants)",
        ["step (s)", "units/s", "running (s)", "overhead (s)",
         "insufficient (s)"],
        [[f"{row['step_s']:.4f}", f"{row['units_per_s']:.0f}",
          f"{row['running_s']:.1f}", f"{row['overhead_s']:.2f}",
          f"{row['insufficient_s']:.1f}"]
         for row in data["step_granularity"]],
    ))
    sections.append(common.render_table(
        "Ablation: pipeline schedule",
        ["schedule", "epoch time (s)", "bubble rate"],
        [[row["schedule"], f"{row['epoch_time_s']:.2f}",
          common.pct(row["bubble_rate"])] for row in data["schedules"]],
    ))
    return "\n\n".join(sections)


def rows(data: dict) -> list[dict]:
    return [
        {"section": section, **row}
        for section in ("grace_period", "rpc_latency", "policies",
                        "step_granularity", "schedules")
        for row in data[section]
    ]


registry.register(
    "ablations",
    "Grace period, RPC latency, assignment policy, step granularity, schedule",
    default_spec, run_spec, render, rows,
)
