"""The FreeRide middleware: Figure 3 of the paper, end to end.

A :class:`Cluster` wires together, for each of its training jobs,

1. an **offline bubble profile** of the job (section 4.3),
2. the **instrumented pipeline engine**, whose bubble reports travel to
   the manager over RPC (step 5 of Figure 3),
3. one **side-task worker per GPU** sized by its stage's bubble memory,

and puts every job's workers behind one **side-task manager** running
Algorithms 1 and 2. Section 8 places many servers behind that same
manager; :class:`FreeRide`, the paper's deployment, is the one-job pool.

Workers are numbered across the pool: job *i*'s stage *s* is worker
``offset_i + s``, which is how the manager keys them and how each job's
instrumentation reports its bubbles.

Declarative code drives the pool through the session API
(:mod:`repro.api`)::

    from repro.api import ScenarioSpec, Session

    spec = ScenarioSpec.from_dict({
        "training": {"epochs": 8},
        "workloads": [{"name": "pagerank", "replicate": False}],
    })
    with Session(spec) as session:
        result = session.run().results()
    print(result.tasks[0].units_done, result.training.total_time)

Direct use::

    freeride = FreeRide(train_config)
    freeride.submit(lambda: PageRankTask(), interface="iterative")
    result = freeride.run()            # -> FreeRideResult

    cluster = Cluster([config_a, ClusterJob(config_b, name="small")])
    cluster.submit_replicated(workload_factory("pagerank"))
    result = cluster.run()             # -> ClusterResult
"""

from __future__ import annotations

import dataclasses
import typing

from repro import calibration
from repro.core.manager import SideTaskManager
from repro.core.policies import AssignmentPolicy, least_loaded_policy
from repro.core.profiler import profile_side_task
from repro.core.rpc import RpcChannel
from repro.core.runtime import SideTaskRuntime
from repro.core.states import SideTaskState
from repro.core.task_spec import TaskProfile, TaskSpec
from repro.core.worker import ManagedBubble, SideTaskWorker
from repro.errors import TaskRejectedError
from repro.gpu.cluster import Server, make_server_i
from repro.pipeline.config import TrainConfig
from repro.pipeline.engine import (
    PipelineEngine, TrainingResult, profile_bubbles, training_streams)
from repro.pipeline.instrumentation import (
    BubbleListener,
    BubbleProfile,
    BubbleStart,
)
from repro.pipeline.memory_model import MemoryModel
from repro.sim.engine import Engine
from repro.sim.rng import RandomStreams

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.interfaces import ImperativeSideTask, IterativeSideTask
    from repro.faults.checkpoint import CheckpointPolicy
    from repro.metrics.fairness import FairnessMetrics
    from repro.metrics.latency import ServingMetrics
    from repro.metrics.resilience import ResilienceMetrics
    from repro.obs.export import TraceResult
    from repro.serving.frontend import RequestRecord

WorkloadFactory = typing.Callable[[], "IterativeSideTask | ImperativeSideTask"]
ServerFactory = typing.Callable[[Engine], Server]


@dataclasses.dataclass(frozen=True)
class ClusterJob:
    """One pipeline-training job of a pool."""

    config: TrainConfig
    #: builds the job's own simulated server inside the pool's engine
    server_factory: ServerFactory = make_server_i
    #: display label; empty = "job<index>"
    name: str = ""

    def label(self, index: int) -> str:
        return self.name or f"job{index}"


class _ManagerListener(BubbleListener):
    """Forwards one job's instrumentation reports to the manager over RPC.

    The job reports bubbles by its own stage numbers; the manager keys
    workers by their index in the pool, so every report is shifted by
    the job's first worker index.
    """

    def __init__(self, sim: Engine, manager: SideTaskManager,
                 hook_cost_s: float, rpc_latency_s: float,
                 stage_offset: int = 0):
        self.hook_cost_s = hook_cost_s
        self.manager = manager
        self.stage_offset = stage_offset
        self.rpc = RpcChannel(sim, "instrumentation", latency_s=rpc_latency_s)

    def on_bubble_start(self, report: BubbleStart) -> None:
        bubble = ManagedBubble(
            stage=report.stage + self.stage_offset,
            start=report.start,
            expected_end=report.expected_end,
            available_gb=report.available_gb,
        )
        self.rpc.cast(self.manager.add_bubble, bubble)

    def on_bubble_end(self, stage: int, now: float) -> None:
        self.rpc.cast(self.manager.bubble_ended, stage + self.stage_offset,
                      now)


@dataclasses.dataclass
class TaskReport:
    """Final accounting for one submitted side task."""

    name: str
    interface: str
    #: the worker's index in the pool
    stage: int
    final_state: SideTaskState
    failure: str | None
    steps_done: int
    units_done: float
    running_s: float
    overhead_s: float
    insufficient_s: float
    init_s: float
    gpu_memory_gb: float
    # recovery accounting (all zero in healthy runs)
    preemptions: int = 0
    restores: int = 0
    checkpoints: int = 0
    checkpoint_s: float = 0.0
    restore_s: float = 0.0
    wasted_steps: int = 0
    wasted_s: float = 0.0
    step_failures: int = 0


class _TaskTotals:
    """Lookups and sums over a result's ``tasks``."""

    tasks: list[TaskReport]

    def task(self, name: str) -> TaskReport:
        for report in self.tasks:
            if report.name == name:
                return report
        raise KeyError(name)

    @property
    def total_units(self) -> float:
        return sum(report.units_done for report in self.tasks)

    @property
    def total_steps(self) -> int:
        return sum(report.steps_done for report in self.tasks)


@dataclasses.dataclass
class FreeRideResult(_TaskTotals):
    """Outcome of one FreeRide run."""

    training: TrainingResult
    tasks: list[TaskReport]
    rejections: list[tuple[str, str]]
    bubble_profile: BubbleProfile
    #: structured span trace; set when the scenario enabled ``obs.trace``
    trace: "TraceResult | None" = None


@dataclasses.dataclass
class JobResult:
    """One training job's share of a cluster run."""

    name: str
    training: TrainingResult
    #: this job's first worker index (its stage 0)
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
class ClusterResult(_TaskTotals):
    """Outcome of one cluster run.

    Utilization is the cluster's headline number: of all the bubble
    seconds the jobs produced, how many were spent running side tasks.
    """

    jobs: "list[JobResult]"
    #: every submitted side task, stage = worker index in the pool
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


class Cluster:
    """Training jobs feeding one shared side-task manager.

    ``jobs`` are :class:`ClusterJob`\\ s or bare ``TrainConfig``\\ s
    (trained on Server I). Each job trains on its own server in the
    pool's engine and draws its pipeline jitter from the stream
    :func:`~repro.experiments.common.baseline_time` draws for its
    config, so the job's time increase divides by a baseline of the same
    draws.
    """

    def __init__(
        self,
        jobs: "typing.Sequence[ClusterJob | TrainConfig]",
        seed: int = 0,
        policy: AssignmentPolicy = least_loaded_policy,
        hook_cost_s: float = calibration.INSTRUMENTATION_OVERHEAD_S,
        rpc_latency_s: float = calibration.RPC_LATENCY_S,
        grace_period_s: float = calibration.GRACE_PERIOD_S,
    ):
        self.jobs: list[ClusterJob] = []
        for job in jobs:
            if isinstance(job, TrainConfig):
                job = ClusterJob(job)
            elif not isinstance(job, ClusterJob):
                raise TypeError(
                    f"cluster jobs are ClusterJob or TrainConfig, "
                    f"got {type(job).__name__}"
                )
            self.jobs.append(job)
        if not self.jobs:
            raise ValueError("need at least one training job")
        self.sim = Engine()
        self.rng = RandomStreams(seed)
        self.servers: list[Server] = []
        self.workers: list[SideTaskWorker] = []
        #: per job: (label, first worker index, stages)
        self.layout: list[tuple[str, int, int]] = []
        profiles = []
        # Every job's workers first: the manager needs the whole pool
        # before any pipeline reports a bubble.
        for index, job in enumerate(self.jobs):
            config = job.config
            server = job.server_factory(self.sim)
            self.servers.append(server)
            # Offline profiling: once per model + schedule (section 4.3).
            profiles.append(profile_bubbles(job.server_factory, config))
            memory = MemoryModel(
                config.model, config.num_stages, config.micro_batches,
                gpu_memory_gb=server.gpu(0).memory_gb,
            )
            offset = len(self.workers)
            self.layout.append((job.label(index), offset, config.num_stages))
            for stage in range(config.num_stages):
                self.workers.append(SideTaskWorker(
                    self.sim,
                    server.gpu(stage),
                    offset + stage,
                    side_task_memory_gb=memory.available_gb(stage),
                    mps=server.mps,
                    rng=self.rng.spawn(f"worker{offset + stage}"),
                ))
        self.manager = SideTaskManager(
            self.sim, self.workers, policy=policy,
            rpc_latency_s=rpc_latency_s,
            grace_period_s=grace_period_s,
        )
        self.pipelines = [
            PipelineEngine(
                self.sim, server, job.config,
                rng=training_streams(job.config),
                listener=_ManagerListener(
                    self.sim, self.manager, hook_cost_s, rpc_latency_s,
                    stage_offset=offset,
                ),
                profile=profile,
            )
            for job, server, profile, (_label, offset, _stages)
            in zip(self.jobs, self.servers, profiles, self.layout)
        ]
        self._submissions: list[tuple[TaskSpec, str, int]] = []

    @property
    def num_jobs(self) -> int:
        return len(self.jobs)

    def job_of_worker(self, stage: int) -> "tuple[int, int]":
        """Map a worker index to ``(job_index, local_stage)``."""
        for index, (_label, offset, num_stages) in enumerate(self.layout):
            if offset <= stage < offset + num_stages:
                return index, stage - offset
        raise IndexError(f"no job owns worker {stage}")

    # ------------------------------------------------------------------
    def submit(
        self,
        workload_factory: WorkloadFactory,
        interface: str = "iterative",
        profile: TaskProfile | None = None,
        name: str = "",
        memory_limit_gb: float | None = None,
        slo_class: str = "",
        deadline_s: float | None = None,
        queue_depth: int = 0,
        checkpoint: "CheckpointPolicy | None" = None,
    ) -> TaskSpec | None:
        """Profile (if needed) and submit one side task.

        Returns the accepted :class:`TaskSpec`, or None when Algorithm 1
        rejected the task for lack of bubble memory (the manager's
        ``rejections`` list records the full context: policy, eligible
        workers, and the caller-supplied ``queue_depth``). ``slo_class``
        and ``deadline_s`` (absolute sim time) tag the task for
        SLO-aware policies and the serving layer's goodput accounting.
        """
        if profile is None:
            probe = workload_factory()
            profile = profile_side_task(probe, interface=interface)
        workload = workload_factory()
        if not name:
            # Stable per-run names keep the derived RNG streams — and so
            # the whole simulation — deterministic for a given seed.
            name = f"{workload.name}-{len(self._submissions)}"
        spec = TaskSpec(
            workload=workload,
            profile=profile,
            name=name,
            memory_limit_gb=memory_limit_gb,
            submitted_at=self.sim.now,
            slo_class=slo_class,
            deadline_s=deadline_s,
            checkpoint=checkpoint,
        )
        try:
            worker = self.manager.submit(spec, interface,
                                         queue_depth=queue_depth)
        except TaskRejectedError:
            return None
        self._submissions.append((spec, interface, worker.stage))
        return spec

    def submit_replicated(
        self,
        workload_factory: WorkloadFactory,
        interface: str = "iterative",
        copies: int | None = None,
    ) -> int:
        """Paper section 6.2: "we run the same side task in all workers if
        they have enough GPU memory" — submit up to one copy per worker,
        stopping at the first rejection. Returns the number accepted."""
        probe = workload_factory()
        profile = profile_side_task(probe, interface=interface)
        eligible = len(self.manager.eligible_workers(profile.gpu_memory_gb))
        limit = min(copies if copies is not None else eligible, eligible)
        accepted = 0
        for _ in range(limit):
            if self.submit(workload_factory, interface, profile=profile) is None:
                break
            accepted += 1
        return accepted

    # ------------------------------------------------------------------
    def run_training(self) -> "list[TrainingResult]":
        """Start every job's pipeline; run until all of them finish."""
        procs = [pipeline.start() for pipeline in self.pipelines]
        return [self.sim.run(until=proc) for proc in procs]

    def drain(self, settle_s: float = 2.0) -> None:
        """Stop live side tasks, let them settle, drain remaining events.

        The canonical end-of-run teardown, shared by :meth:`run` and the
        serving layer (which interposes its frontend close in between).
        """
        # Parked PREEMPTED tasks first: they have no process to stop and
        # must not be re-placed during the settle window.
        for task in list(self.manager.preempted):
            task.abandon("preempted at teardown (never restored)")
        for task in self.manager.live_tasks():
            self.manager.stop_task(task)
        self.sim.run(until=self.sim.now + settle_s)
        self.sim.run()  # drain any remaining teardown events

    def run(self, settle_s: float = 2.0):
        """Train every job to completion, stop side tasks, and report."""
        trainings = self.run_training()
        self.drain(settle_s)
        return self.result(trainings)

    def result(self, trainings: "list[TrainingResult]",
               **serving) -> ClusterResult:
        """The :class:`ClusterResult` of a finished run; ``serving``
        fills its traffic and resilience fields."""
        reports = self._reports()
        jobs = [
            JobResult(
                name=label,
                training=training,
                stage_offset=offset,
                num_stages=num_stages,
                tasks=[report for report in reports
                       if offset <= report.stage < offset + num_stages],
            )
            for training, (label, offset, num_stages)
            in zip(trainings, self.layout)
        ]
        return ClusterResult(jobs=jobs, tasks=reports,
                             rejections=list(self.manager.rejections),
                             **serving)

    def _reports(self) -> list[TaskReport]:
        reports = []
        for spec, interface, stage in self._submissions:
            runtime = self.runtime_for(spec)
            workload = spec.workload
            reports.append(TaskReport(
                name=spec.name,
                interface=interface,
                stage=stage,
                final_state=runtime.state,
                failure=runtime.failure,
                steps_done=workload.steps_done,
                units_done=workload.units_done,
                running_s=runtime.running_s,
                overhead_s=runtime.overhead_s,
                insufficient_s=runtime.insufficient_s,
                init_s=runtime.init_s,
                gpu_memory_gb=spec.profile.gpu_memory_gb,
                preemptions=runtime.preemptions,
                restores=runtime.restores,
                checkpoints=runtime.checkpoints,
                checkpoint_s=runtime.checkpoint_s,
                restore_s=runtime.restore_s,
                wasted_steps=runtime.wasted_steps,
                wasted_s=runtime.wasted_s,
                step_failures=runtime.step_failures,
            ))
        return reports

    def runtime_for(self, spec: TaskSpec) -> SideTaskRuntime:
        """The runtime serving ``spec`` (raises KeyError if unknown)."""
        for worker in self.workers:
            for runtime in worker.all_tasks:
                if runtime.spec is spec:
                    return runtime
        raise KeyError(spec.name)


class FreeRide(Cluster):
    """The middleware for one training job: instrumented training plus
    managed side tasks."""

    def __init__(
        self,
        train_config: TrainConfig,
        server_factory: ServerFactory = make_server_i,
        seed: int = 0,
        policy: AssignmentPolicy = least_loaded_policy,
        hook_cost_s: float = calibration.INSTRUMENTATION_OVERHEAD_S,
        rpc_latency_s: float = calibration.RPC_LATENCY_S,
        grace_period_s: float = calibration.GRACE_PERIOD_S,
    ):
        super().__init__(
            [ClusterJob(train_config, server_factory, name="train")],
            seed=seed, policy=policy, hook_cost_s=hook_cost_s,
            rpc_latency_s=rpc_latency_s, grace_period_s=grace_period_s,
        )

    def run_training(self) -> TrainingResult:
        """Start the pipeline and run the simulation until it completes."""
        return super().run_training()[0]

    def result(self, training: TrainingResult) -> FreeRideResult:
        """The :class:`FreeRideResult` of a finished run."""
        return FreeRideResult(
            training=training,
            tasks=self._reports(),
            rejections=list(self.manager.rejections),
            bubble_profile=self.pipelines[0].profile,
        )
