"""MPS and naive co-location baselines (paper section 6.1.2).

Both baselines place the side task on the training GPU and let it run
*continuously* — they have no notion of bubbles. Under MPS the side task's
kernels execute concurrently with training kernels and steal SM cycles
(catastrophically so for compute-dense tasks like Graph SGD); without MPS
the driver time-slices the two contexts and training stalls whenever the
side task holds the device.

Placement follows the same memory rule FreeRide uses: a copy of the task
goes to every stage whose spare GPU memory fits it. The side tasks run as
low-priority processes; everything else about training is untouched
(no instrumentation, no hook costs — this is stock DeepSpeed).
"""

from __future__ import annotations

import dataclasses
import typing

from repro.core.interfaces import SideTaskContext
from repro.gpu.cluster import make_server_i
from repro.gpu.kernel import Interference, Priority
from repro.gpu.process import GPUProcess
from repro.gpu.sharing import SharingMode
from repro.pipeline.config import TrainConfig
from repro.pipeline.engine import PipelineEngine, TrainingResult
from repro.sim.engine import Engine
from repro.sim.events import Interrupt
from repro.sim.rng import RandomStreams

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.interfaces import IterativeSideTask

WorkloadFactory = typing.Callable[[], "IterativeSideTask"]


@dataclasses.dataclass
class ColocationTaskReport:
    name: str
    stage: int
    steps_done: int
    units_done: float


@dataclasses.dataclass
class ColocationResult:
    mode: str
    training: TrainingResult
    tasks: list[ColocationTaskReport]

    @property
    def total_units(self) -> float:
        return sum(report.units_done for report in self.tasks)


def run_colocation(
    train_config: TrainConfig,
    workload_factory: WorkloadFactory | None = None,
    mode: str = "mps",
    seed: int = 0,
    copies: int | None = None,
    placement: list[tuple[int, WorkloadFactory]] | None = None,
) -> ColocationResult:
    """Run training with side tasks continuously co-located.

    ``mode`` is "mps" (concurrent kernels, training prioritized) or
    "naive" (driver time-slicing). Either pass one ``workload_factory``
    (a copy lands on every stage with enough spare memory, as in Table 2's
    single-task rows) or an explicit ``placement`` of (stage, factory)
    pairs (the mixed workload).
    """
    if mode not in ("mps", "naive"):
        raise ValueError(f"unknown co-location mode {mode!r}")
    if (workload_factory is None) == (placement is None):
        raise ValueError("pass exactly one of workload_factory or placement")
    sharing = SharingMode.MPS if mode == "mps" else SharingMode.TIME_SLICE
    sim = Engine()
    server = make_server_i(sim, sharing=sharing)
    rng = RandomStreams(seed)
    pipeline = PipelineEngine(
        sim, server, train_config, rng=rng.spawn("pipeline")
    )
    memory = pipeline.memory
    if placement is None:
        eligible_stages = [
            stage
            for stage in range(train_config.num_stages)
            if memory.available_gb(stage) >= workload_factory().perf.memory_gb
        ]
        if copies is not None:
            eligible_stages = eligible_stages[:copies]
        placement = [(stage, workload_factory) for stage in eligible_stages]

    workloads = []
    side_procs = []
    for stage, factory in placement:
        workload = factory()
        perf = workload.perf
        proc = GPUProcess(
            sim,
            server.gpu(stage),
            name=f"colo-{workload.name}-s{stage}",
            priority=Priority.SIDE,
            interference=Interference(
                mps_on_higher=perf.mps_interference,
                mps_on_lower=0.3,
                time_slice=perf.naive_interference,
            ),
        )
        ctx = SideTaskContext(sim, proc, rng.spawn(f"colo{stage}"),
                              task_name=workload.name)
        workload.create_side_task()
        workload.init_side_task(ctx)
        proc.attach(sim.process(_continuous_loop(workload, ctx),
                                name=f"colo-loop-s{stage}"))
        workloads.append((workload, stage))
        side_procs.append(proc)

    training_result = sim.run(until=pipeline.start())
    for proc in side_procs:
        proc.kill("training finished")
    sim.run()
    reports = [
        ColocationTaskReport(
            name=workload.name,
            stage=stage,
            steps_done=workload.steps_done,
            units_done=workload.units_done,
        )
        for workload, stage in workloads
    ]
    return ColocationResult(mode=mode, training=training_result, tasks=reports)


def _continuous_loop(workload, ctx: SideTaskContext):
    """The side task's own main loop: step after step, no bubble awareness."""
    try:
        while not workload.is_finished:
            yield from workload.run_next_step(ctx)
    except Interrupt:
        return
