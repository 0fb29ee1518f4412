"""The pipeline-training engine.

Executes the static per-stage op order on the simulated GPUs, honouring
the cross-stage dependency rules of :mod:`repro.pipeline.ops`. Bubbles are
the waits this execution produces; nothing about them is scripted.

Each stage is one training :class:`~repro.gpu.process.GPUProcess` pinned
to its GPU with its stage memory allocated up front (memory use is flat
within a stage, paper Figure 1b). Ops run as high-priority kernels, so any
co-located side task stretches them according to the device's sharing
mode — which is precisely how the co-location overheads of Table 2 arise.

The schedule is static, so everything an epoch's bookkeeping needs from
it — each op's index, name, dependencies and whether it is its stage's
first backward — is worked out once per (schedule, stages, micro-batches)
in an op plan (:func:`_stage_plans`). Training runs as one process per
run that wakes once per epoch; each stage's epoch runs as callbacks on
its own entries (:class:`_StageEpoch`), with the ``(time, seq)`` keys a
generator process per stage per epoch would take.

A run with nothing co-located — the no-side-task baseline and the
offline bubble profile — needs none of that: each GPU runs one kernel at
a time, so :func:`solo_training` computes its timeline from the same
plan in one pass, float for float what the engine would produce. The
engine stays the only path for runs with a listener or side tasks, and
the reference the tests check :func:`solo_training` against.
"""

from __future__ import annotations

import dataclasses
import functools
import typing

from repro.gpu.kernel import TRAINING_INTERFERENCE, Priority
from repro.gpu.process import GPUProcess
from repro.pipeline.analysis import (
    BubbleRecord,
    BubbleType,
    EpochRecord,
    TrainingTrace,
    classify_gap,
)
from repro.pipeline.config import TrainConfig
from repro.pipeline.instrumentation import (
    BubbleListener,
    BubbleProfile,
    BubbleStart,
    NullListener,
)
from repro.pipeline.memory_model import MemoryModel
from repro.pipeline.ops import Op, OpKind, OpRecord, dependencies
from repro.pipeline.schedule import stage_order
from repro.pipeline.timing import TimingModel
from repro.sim.engine import Engine
from repro.sim.events import PENDING, PROCESSED, SimEvent
from repro.sim.process import Process
from repro.sim.rng import RandomStreams

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.gpu.cluster import Server

#: gaps shorter than this are jitter noise, not bubbles: no side task could
#: use them, and the paper's smallest observed bubble is 0.22 s
MIN_BUBBLE_S = 0.05
#: profiled bubbles shorter than this are not worth reporting to the manager
MIN_REPORT_S = 0.05
#: epochs of the offline profiling run
PROFILING_EPOCHS = 3
#: SM demand of training kernels (Figure 1a shows near-full occupancy)
OP_SM_DEMAND = 0.95
OPTIMIZER_SM_DEMAND = 0.55
#: the bubble after a stage's last op, until the epoch barrier
_TRAILING = classify_gap(is_before_first_op=False, is_after_last_op=True,
                         next_is_first_backward=False)


@dataclasses.dataclass
class TrainingResult:
    """Outcome of one pipeline-training run."""

    config: TrainConfig
    trace: TrainingTrace
    start_time: float
    end_time: float

    @property
    def total_time(self) -> float:
        return self.end_time - self.start_time

    @property
    def mean_epoch_time(self) -> float:
        return self.trace.mean_epoch_time()


class PipelineEngine:
    """DeepSpeed-like pipeline training over simulated GPUs."""

    def __init__(
        self,
        sim: Engine,
        server: "Server",
        config: TrainConfig,
        rng: RandomStreams | None = None,
        listener: BubbleListener | None = None,
        profile: BubbleProfile | None = None,
    ):
        if server.num_gpus < config.num_stages:
            raise ValueError(
                f"{server.name} has {server.num_gpus} GPUs; "
                f"{config.num_stages} stages need one each"
            )
        self.sim = sim
        self.server = server
        self.config = config
        self.rng = rng or RandomStreams(config.seed)
        self.listener = listener or NullListener()
        self.profile = profile
        self.timing = TimingModel(config.model, config.op_jitter, self.rng)
        self.memory = MemoryModel(
            config.model,
            config.num_stages,
            config.micro_batches,
            gpu_memory_gb=server.gpu(0).memory_gb,
        )
        self.trace = TrainingTrace(num_stages=config.num_stages)
        self.stage_procs: list[GPUProcess] = [
            GPUProcess(
                sim,
                server.gpu(stage),
                name=f"train-stage{stage}",
                priority=Priority.TRAINING,
                interference=TRAINING_INTERFERENCE,
            )
            for stage in range(config.num_stages)
        ]
        self._op_names, self._plans = _stage_plans(
            config.schedule, config.num_stages, config.micro_batches)
        self._start_time: float | None = None
        #: per-stage memory a bubble offers, read once the stages hold
        #: their allocations
        self._available_gb: list[float] = []
        #: the running epoch's barrier: stages still in it, and the event
        #: the training process waits on
        self._stages_running = 0
        self._epoch_done: SimEvent | None = None

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def start(self) -> Process:
        """Spawn the training coroutine; returns its process."""
        return self.sim.process(self._run(), name="pipeline-training")

    def run(self) -> TrainingResult:
        """Start training and run the simulation until it finishes."""
        proc = self.start()
        return self.sim.run(until=proc)

    # ------------------------------------------------------------------
    # coroutines
    # ------------------------------------------------------------------
    def _run(self):
        self._start_time = self.sim.now
        for stage, proc in enumerate(self.stage_procs):
            proc.allocate(self.memory.stage_memory_gb(stage))
        self._available_gb = [self.memory.available_gb(stage)
                              for stage in range(self.config.num_stages)]
        for epoch in range(self.config.epochs):
            epoch_start = self.sim.now
            self.listener.on_epoch_start(epoch, epoch_start)
            op_done = [SimEvent(self.sim, name) for name in self._op_names]
            trailing: dict[int, tuple[float, int]] = {}
            self._stages_running = self.config.num_stages
            self._epoch_done = SimEvent(self.sim)
            for stage in range(self.config.num_stages):
                _StageEpoch(self, stage, epoch, op_done, trailing)
            yield self._epoch_done
            epoch_end = self.sim.now
            self._close_trailing_bubbles(epoch, epoch_end, trailing)
            self.trace.epochs.append(EpochRecord(epoch, epoch_start, epoch_end))
            self.listener.on_epoch_end(epoch, epoch_end)
        result = TrainingResult(
            config=self.config,
            trace=self.trace,
            start_time=self._start_time,
            end_time=self.sim.now,
        )
        return result

    def _stage_finished(self, _arg: None) -> None:
        """A stage's epoch ended; the last one to end ends the epoch."""
        self._stages_running -= 1
        if not self._stages_running:
            self._epoch_done.succeed()

    def _report_bubble_start(self, stage, index, start, btype) -> bool:
        """Report to the listener unless the profile says it is negligible.

        Returns True when a report was made (so the matching end report and
        hook cost apply).
        """
        expected = None
        if self.profile is not None:
            expected = self.profile.expected_duration(stage, index)
            if expected is None or expected < MIN_REPORT_S:
                return False
        self.listener.on_bubble_start(
            BubbleStart(
                stage=stage,
                index=index,
                start=start,
                btype=btype,
                available_gb=self._available_gb[stage],
                expected_duration=expected,
            )
        )
        return True

    def _close_trailing_bubbles(self, epoch, epoch_end, trailing):
        for stage, (start, index) in trailing.items():
            reported = True
            if self.profile is not None:
                expected = self.profile.expected_duration(stage, index)
                reported = expected is not None and expected >= MIN_REPORT_S
            if reported:
                self.listener.on_bubble_end(stage, epoch_end)
            if epoch_end - start >= MIN_BUBBLE_S:
                self.trace.bubbles.append(
                    BubbleRecord(
                        epoch=epoch,
                        stage=stage,
                        index=index,
                        start=start,
                        end=epoch_end,
                        btype=_TRAILING,
                        available_gb=self._available_gb[stage],
                    )
                )


#: one planned op: ``(op, index, name, is_first_backward, dependency
#: indices)``, indices into the epoch's op list
_PlannedOp = tuple[Op, int, str, bool, tuple[int, ...]]


@functools.lru_cache(maxsize=64)
def _stage_plans(
    schedule: str, num_stages: int, micro_batches: int,
) -> tuple[tuple[str, ...], tuple[tuple[_PlannedOp, ...], ...]]:
    """The op plan of one schedule: ``(names, plans)``.

    Ops are indexed stage by stage in each stage's execution order;
    ``names[index]`` is the op's name and ``plans[stage]`` lists the
    stage's ops in order. An epoch's op events are then a list indexed
    like ``names``, so no op is built, hashed or formatted per epoch.
    The plan is immutable and shared by every engine with this shape.
    """
    orders = [stage_order(schedule, stage, num_stages, micro_batches)
              for stage in range(num_stages)]
    index = {op: position for position, op in
             enumerate(op for order in orders for op in order)}
    names = tuple(str(op) for op in index)
    plans = []
    for order in orders:
        first_backward = next(
            (op for op in order if op.kind is OpKind.BACKWARD), None
        )
        plans.append(tuple(
            (op, index[op], names[index[op]], op == first_backward,
             tuple(index[dep] for dep in dependencies(op, num_stages)))
            for op in order
        ))
    return names, tuple(plans)


class _StageEpoch:
    """One stage's epoch, run as callbacks on its own entries.

    Each wait takes the entry, with the ``(time, seq)`` key, that a
    generator process running the stage's epoch would take:

    * the start: a zero-delay entry where the process's bootstrap event
      would be, made as the training process starts the epoch;
    * a dependency wait: a join registered on the same pending op events
      in the same order as an ``AllOf``; when the last is processed it
      schedules the continuation at zero delay, where the ``AllOf``
      would trigger;
    * an op's or the optimizer's kernel: the continuation on the kernel,
      its own completion event, where the process's resume would be (a
      lone kernel's completion still fires in place);
    * the hook cost: a timer of ``hook_cost_s``, where the timeout was;
    * the end: a zero-delay entry where the process's own termination
      event would be, running the epoch barrier
      (:meth:`PipelineEngine._stage_finished`).

    Bubbles are identified by the op position they precede (the trailing
    bubble uses ``len(plan)``). The instrumentation hooks sit at fixed
    code sites in the schedule, so this key — unlike a running per-epoch
    counter — stays aligned with the offline profile even when
    co-location perturbs the timing and creates or removes incidental
    waits. A listener hook that raises, or a failed kernel, raises out of
    the callback and so out of :meth:`Engine.run`.
    """

    __slots__ = ("engine", "sim", "stage", "epoch", "plan", "op_done",
                 "trailing", "proc", "position", "op_start", "wait_start",
                 "wait_end", "btype", "reported", "waiting", "resume",
                 "on_child", "on_op_done")

    def __init__(self, engine: PipelineEngine, stage: int, epoch: int,
                 op_done: list[SimEvent],
                 trailing: dict[int, tuple[float, int]]):
        self.engine = engine
        self.sim = engine.sim
        self.stage = stage
        self.epoch = epoch
        self.plan = engine._plans[stage]
        self.op_done = op_done
        self.trailing = trailing
        self.proc = engine.stage_procs[stage]
        self.position = 0
        self.op_start = 0.0
        #: the open bubble: its start, end, type and whether it was
        #: reported
        self.wait_start = self.wait_end = 0.0
        self.btype: BubbleType | None = None
        self.reported = False
        #: pending events of the current join, and what runs after it
        self.waiting = 0
        self.resume: typing.Callable[[None], None] | None = None
        # bound once: registered on every op event and kernel it waits on
        self.on_child = self._on_child
        self.on_op_done = self._on_op_done
        self.sim.call_later(0.0, self._next_op)

    def _join(self, pending: list[SimEvent],
              resume: typing.Callable[[None], None]) -> None:
        self.waiting = len(pending)
        self.resume = resume
        on_child = self.on_child
        for event in pending:
            event.callbacks.append(on_child)

    def _on_child(self, _event: SimEvent) -> None:
        self.waiting -= 1
        if not self.waiting:
            self.sim.call_later(0.0, self.resume)

    def _next_op(self, _arg: None = None) -> None:
        position = self.position
        _op, _index, _name, is_first_backward, deps = self.plan[position]
        op_done = self.op_done
        pending = [op_done[dep] for dep in deps
                   if op_done[dep]._state != PROCESSED]
        if not pending:
            self._launch()
        elif all(event._state != PENDING for event in pending):
            # An event that has triggered but not yet processed completes
            # at this same instant: waiting on it costs zero time and is
            # not a bubble. Only an untriggered dependency opens one.
            self._join(pending, self._launch)
        else:
            self.wait_start = self.sim.now
            self.btype = btype = classify_gap(
                is_before_first_op=(position == 0),
                is_after_last_op=False,
                next_is_first_backward=is_first_backward,
            )
            self.reported = self.engine._report_bubble_start(
                self.stage, position, self.wait_start, btype
            )
            self._join(pending, self._on_wait_end)

    def _on_wait_end(self, _arg: None) -> None:
        self.wait_end = now = self.sim.now
        if self.reported:
            listener = self.engine.listener
            listener.on_bubble_end(self.stage, now)
            if listener.hook_cost_s > 0:
                self.sim.call_later(listener.hook_cost_s, self._close_bubble)
                return
        self._close_bubble()

    def _close_bubble(self, _arg: None = None) -> None:
        if self.wait_end - self.wait_start >= MIN_BUBBLE_S:
            engine = self.engine
            engine.trace.bubbles.append(
                BubbleRecord(
                    epoch=self.epoch,
                    stage=self.stage,
                    index=self.position,
                    start=self.wait_start,
                    end=self.wait_end,
                    btype=self.btype,
                    available_gb=engine._available_gb[self.stage],
                )
            )
        self._launch()

    def _launch(self, _arg: None = None) -> None:
        op, _index, name, _first, _deps = self.plan[self.position]
        duration = self.engine.timing.op_duration(op)
        self.op_start = self.sim.now
        done = self.proc.launch_kernel(
            work_s=duration, sm_demand=OP_SM_DEMAND, name=name
        )
        done.callbacks.append(self.on_op_done)

    def _on_op_done(self, done: SimEvent) -> None:
        if done._exception is not None:
            raise done._exception
        op, index, _name, _first, _deps = self.plan[self.position]
        self.engine.trace.ops.append(
            OpRecord(epoch=self.epoch, op=op, start=self.op_start,
                     end=self.sim.now)
        )
        self.op_done[index].succeed()
        self.position += 1
        if self.position < len(self.plan):
            self._next_op()
        else:
            self._optimize()

    def _optimize(self) -> None:
        """Per-stage optimizer step (busy, bubble-free)."""
        engine = self.engine
        stage = self.stage
        jitter = engine.config.op_jitter
        opt_time = engine.timing.optimizer_time
        if jitter > 0:
            opt_time = engine.rng.jitter(f"opt:{stage}", opt_time, jitter)
        done = self.proc.launch_kernel(
            work_s=opt_time, sm_demand=OPTIMIZER_SM_DEMAND,
            name=f"opt-s{stage}"
        )
        done.callbacks.append(self._on_optimized)

    def _on_optimized(self, done: SimEvent) -> None:
        # The stage now idles until the slowest stage finishes the epoch:
        # the trailing Type-A bubble. Report its start; the coordinator
        # closes it when the epoch barrier falls.
        if done._exception is not None:
            raise done._exception
        now = self.sim.now
        trailing_index = len(self.plan)
        self.engine._report_bubble_start(self.stage, trailing_index, now,
                                         _TRAILING)
        self.trailing[self.stage] = (now, trailing_index)
        self.sim.call_later(0.0, self.engine._stage_finished)


def training_streams(config: TrainConfig) -> RandomStreams:
    """The op-jitter streams a training run of ``config`` draws from: the
    ``pipeline`` child of its seed. Its no-side-task baseline
    (``baseline_time``) draws from the same streams, so a run with
    nothing co-located takes exactly that time."""
    return RandomStreams(config.seed).spawn("pipeline")


def profile_bubbles(
    server_factory: typing.Callable[[Engine], "Server"],
    config: TrainConfig,
    profiling_epochs: int = PROFILING_EPOCHS,
) -> BubbleProfile:
    """Offline bubble profiling (paper section 4.3).

    Trains a short job with nothing co-located and extracts the
    per-(stage, index) bubble durations. The job is computed from the op
    plan (:func:`solo_training`), not simulated; its bubbles equal a
    :class:`PipelineEngine` run's on a fresh server from
    ``server_factory``, and the tests check them against one.

    "This offline profiling is done only once for each model and
    pipeline scheduling" — so the result is cached on the probe
    configuration (the training config with its epoch count replaced),
    and every FreeRide instance sharing a model, schedule and seed
    reuses it. The profile is treated as read-only by consumers.
    """
    probe_config = dataclasses.replace(config, epochs=profiling_epochs)
    return _profile_bubbles_cached(server_factory, probe_config)


@functools.lru_cache(maxsize=64)
def _profile_bubbles_cached(
    server_factory: typing.Callable[[Engine], "Server"],
    probe_config: TrainConfig,
) -> BubbleProfile:
    result = solo_training(server_factory(Engine()), probe_config)
    return BubbleProfile.from_trace(result.trace)


#: one op of a solo epoch: ``(stage, position, index, dependency indices,
#: whether it is a forward, type of a bubble before it)``
_SoloOp = tuple[int, int, int, tuple[int, ...], bool, BubbleType]


@functools.lru_cache(maxsize=64)
def _solo_plan(
    schedule: str, num_stages: int, micro_batches: int,
) -> tuple[tuple[_SoloOp, ...], tuple[int, ...]]:
    """The op plan in one order: ``(ops, trailing indices)``.

    ``ops`` lists every op of an epoch in an order that respects the
    dependencies and keeps each stage's execution order, so each stage's
    jitter stream is drawn in the order the engine draws it.
    ``trailing[stage]`` is the index of the stage's trailing bubble.
    """
    names, plans = _stage_plans(schedule, num_stages, micro_batches)
    ops: list[_SoloOp] = []
    done: set[int] = set()
    positions = [0] * num_stages
    while len(ops) < len(names):
        for stage, plan in enumerate(plans):
            position = positions[stage]
            while position < len(plan):
                op, index, _name, is_first_backward, deps = plan[position]
                if not done.issuperset(deps):
                    break
                btype = classify_gap(is_before_first_op=(position == 0),
                                     is_after_last_op=False,
                                     next_is_first_backward=is_first_backward)
                ops.append((stage, position, index, deps,
                            op.kind is OpKind.FORWARD, btype))
                done.add(index)
                position += 1
            positions[stage] = position
    return tuple(ops), tuple(len(plan) for plan in plans)


def solo_training(server: "Server", config: TrainConfig,
                  rng: RandomStreams | None = None) -> TrainingResult:
    """A training run with nothing co-located, computed without the engine.

    Alone on its GPU, every op runs at full speed, so the timeline is a
    max-plus pass over the op plan: an op starts at the later of its
    stage's previous end and its dependencies' ends, and ends
    ``work_s / speed_factor`` later; each stage's optimizer follows its
    last op, and the epoch ends with the last optimizer. Durations come
    from the ``op:{stage}`` and ``opt:{stage}`` streams of ``rng`` (the
    config's seed by default) in each stage's op order, as
    :class:`PipelineEngine` draws them, so the result equals a
    :class:`PipelineEngine` run with no listener on ``server`` float for
    float: the same epochs and end time, and the same bubbles (a gap of
    at least :data:`MIN_BUBBLE_S`, each stage's trailing one included)
    with the same index, type and available memory, though not in the
    same order. ``trace.ops`` stays empty. The engine is this function's
    test reference, and the only path for runs with a listener or side
    tasks. Raises what the engine raises for a server or config it
    cannot train.
    """
    if server.num_gpus < config.num_stages:
        raise ValueError(
            f"{server.name} has {server.num_gpus} GPUs; "
            f"{config.num_stages} stages need one each"
        )
    rng = rng or RandomStreams(config.seed)
    num_stages = config.num_stages
    memory = MemoryModel(config.model, num_stages, config.micro_batches,
                         gpu_memory_gb=server.gpu(0).memory_gb)
    available = [memory.available_gb(stage) for stage in range(num_stages)]
    timing = TimingModel(config.model)
    fp_time, bp_time = timing.fp_time, timing.bp_time
    opt_time = timing.optimizer_time
    jitter = config.op_jitter
    if jitter > 0:
        op_streams = [rng.stream(f"op:{stage}") for stage in range(num_stages)]
        opt_streams = [rng.stream(f"opt:{stage}")
                       for stage in range(num_stages)]
    speeds = [server.gpu(stage).speed_factor for stage in range(num_stages)]
    ops, trailing = _solo_plan(config.schedule, num_stages,
                               config.micro_batches)
    trace = TrainingTrace(num_stages=num_stages)
    bubbles = trace.bubbles
    epoch_end = 0.0
    for epoch in range(config.epochs):
        epoch_start = epoch_end
        free = [epoch_start] * num_stages
        ends = [0.0] * len(ops)
        for stage, position, index, deps, forward, btype in ops:
            previous = start = free[stage]
            for dep in deps:
                if ends[dep] > start:
                    start = ends[dep]
            if start - previous >= MIN_BUBBLE_S:
                bubbles.append(BubbleRecord(epoch, stage, position, previous,
                                            start, btype, available[stage]))
            work = fp_time if forward else bp_time
            if jitter > 0:
                work = op_streams[stage].lognormvariate(0.0, jitter) * work
            free[stage] = ends[index] = start + work / speeds[stage]
        for stage in range(num_stages):
            work = opt_time
            if jitter > 0:
                work = opt_streams[stage].lognormvariate(0.0, jitter) * work
            free[stage] += work / speeds[stage]
        epoch_end = max(free)
        for stage, optimized in enumerate(free):
            if epoch_end - optimized >= MIN_BUBBLE_S:
                bubbles.append(BubbleRecord(
                    epoch, stage, trailing[stage], optimized,
                    epoch_end, _TRAILING, available[stage]))
        trace.epochs.append(EpochRecord(epoch, epoch_start, epoch_end))
    return TrainingResult(config=config, trace=trace, start_time=0.0,
                          end_time=epoch_end)
