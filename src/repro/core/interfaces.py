"""Side-task programming interfaces (paper sections 4.2 and 5).

**Iterative** (preferred): the programmer expresses the workload as
repeated small steps, with hooks that mirror Figure 6 —
``create_side_task`` (host context), ``init_side_task`` (GPU context),
``compute_step`` (the work of one step), ``stop_side_task`` (cleanup).
FreeRide runs each step (the paper's ``RunNextStep``) from its phases,
``host_phase``, ``launch_step`` and ``after_step``, which a task may
override to reshape its steps. FreeRide handles pausing/resuming and all
state transitions; the programmer never sees a bubble.

**Imperative** (fallback): the programmer provides one
``run_gpu_workload`` body; FreeRide pauses/resumes the process with
SIGTSTP/SIGCONT. More versatile, but CUDA kernels already in flight when
the stop signal lands keep running and overlap with training — the source
of this interface's higher overhead.

Each side task carries a :class:`~repro.calibration.SideTaskProfile`
describing how it behaves on the simulated hardware (step duration, GPU
memory, SM demand). The middleware never reads it — the automated
profiler *measures* these quantities, exactly as in the paper.
"""

from __future__ import annotations

import abc
import dataclasses
import math
import typing

from repro.calibration import SideTaskProfile
from repro.sim.events import SimEvent
from repro.sim.rng import RandomStreams

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.gpu.process import GPUProcess
    from repro.sim.engine import Engine

#: relative sigma of a side-task duration's lognormal jitter: the
#: run-to-run spread of a task's host work and kernels
JITTER_SIGMA = 0.02


def step_split(perf: SideTaskProfile) -> tuple[float, float]:
    """The stock step's host seconds and kernel seconds: the profiled
    step time split by the task's GPU duty."""
    step_time_s = perf.step_time_s
    return step_time_s * (1.0 - perf.gpu_duty), step_time_s * perf.gpu_duty


@dataclasses.dataclass
class SideTaskContext:
    """Execution context handed to side-task hooks."""

    engine: "Engine"
    proc: "GPUProcess"
    rng: RandomStreams
    task_name: str
    #: the standard-normal source of the task's jitter stream, resolved
    #: once — jitter() runs per step
    _normal: typing.Any = dataclasses.field(
        default=None, repr=False, compare=False
    )

    @property
    def now(self) -> float:
        return self.engine.now

    def normal_source(self) -> typing.Callable[[], float]:
        """The standard-normal source of the stream ``task:<name>``.

        :meth:`RandomStreams.normal` is shared by name, so a restored
        task's new context continues the sequence, and a caller holding
        the source continues the one :meth:`jitter` draws from. Getting
        it draws nothing.
        """
        normal = self._normal
        if normal is None:
            normal = self._normal = self.rng.normal(f"task:{self.task_name}")
        return normal

    def jitter(self, mean: float) -> float:
        """``mean`` times a lognormal factor of sigma :data:`JITTER_SIGMA`.

        The value is ``lognormvariate(0.0, JITTER_SIGMA) * mean`` on the
        stream ``task:<name>``, bit for bit, computed as that method
        does from the stream's normal source (:meth:`normal_source`).
        """
        if mean <= 0:
            return 0.0
        return math.exp(0.0 + self.normal_source()() * JITTER_SIGMA) * mean


class SideTaskBase(abc.ABC):
    """Hooks and accounting shared by both interfaces."""

    def __init__(self, perf: SideTaskProfile, name: str = ""):
        self.perf = perf
        self.name = name or perf.name
        self.steps_done = 0
        self.units_done = 0.0
        self.host_loaded = False
        self.gpu_loaded = False

    # -- life-cycle hooks (override freely) -----------------------------
    def create_side_task(self) -> None:
        """CREATED: build the host-side context (dataset, model, ...)."""
        self.host_loaded = True

    def init_side_task(self, ctx: SideTaskContext) -> None:
        """CREATED -> PAUSED: move the context into GPU memory."""
        ctx.proc.allocate(self.perf.memory_gb)
        self.gpu_loaded = True

    def stop_side_task(self, ctx: SideTaskContext) -> None:
        """* -> STOPPED: release whatever is still held."""
        if self.gpu_loaded and ctx.proc.alive and ctx.proc.memory_gb > 0:
            ctx.proc.free()
        self.gpu_loaded = False

    # -- checkpoint/restore (fault-tolerance layer) ----------------------
    def checkpoint_state(self) -> dict:
        """Snapshot the resumable progress of this task.

        The default covers the base accounting; workloads with extra
        mutable progress extend the dict (and mirror it in
        :meth:`restore_state`).
        """
        return {"steps_done": self.steps_done, "units_done": self.units_done}

    def restore_state(self, snapshot: dict) -> None:
        """Roll progress back to ``snapshot`` (inverse of checkpoint)."""
        self.steps_done = snapshot["steps_done"]
        self.units_done = snapshot["units_done"]

    # -- completion ------------------------------------------------------
    @property
    def is_finished(self) -> bool:
        """Override for finite tasks; endless tasks return False."""
        return False

    def _account_step(self) -> None:
        self.steps_done += 1
        self.units_done += self.perf.units_per_step

    # -- one step's phases (override to reshape a step) ------------------
    def host_phase(self, ctx: SideTaskContext) -> float | None:
        """The step's host phase: the jittered host seconds, drawn now, or
        None when the profile puts all of the step on the GPU."""
        host_s = step_split(self.perf)[0]
        if host_s > 0:
            return ctx.jitter(host_s)
        return None

    def launch_step(self, ctx: SideTaskContext) -> SimEvent:
        """The step after its host phase: ``compute_step``, then the
        jittered kernel; returns the kernel, its own completion event."""
        self.compute_step()
        perf = self.perf
        return ctx.proc.launch_kernel(
            ctx.jitter(step_split(perf)[1]), perf.sm_demand, self.name)

    def after_step(self, ctx: SideTaskContext) -> None:
        """Runs once the step's kernel has completed and the step is
        counted; the stock one does nothing."""

    @abc.abstractmethod
    def compute_step(self) -> None:
        """The real (host-executed) computation of one step."""


class IterativeSideTask(SideTaskBase):
    """Step-wise side task for the iterative interface.

    FreeRide runs each step from its phases (``host_phase``,
    ``launch_step``, ``after_step``), so a task reshapes its steps by
    overriding those; overriding ``run_next_step`` raises ``TypeError``.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "run_next_step" in vars(cls):
            raise TypeError(
                f"{cls.__qualname__} overrides run_next_step; override its "
                "phases host_phase, launch_step or after_step instead")

    def run_next_step(self, ctx: SideTaskContext):
        """One step as a generator, for loops that run a task on their
        own: the profiler and the dedicated and co-location baselines.

        The host phase's timeout, then ``launch_step``'s kernel, the
        step's accounting and ``after_step``. Within FreeRide the runtime
        runs the same phases as callbacks
        (``repro.core.runtime._StepDriver``).
        """
        host = self.host_phase(ctx)
        if host is not None:
            yield ctx.engine.timeout(host)
        yield self.launch_step(ctx)
        self._account_step()
        self.after_step(ctx)


class ImperativeSideTask(SideTaskBase):
    """Monolithic side task for the imperative interface."""

    def run_gpu_workload(self, ctx: SideTaskContext):
        """The whole workload as one loop; paused via SIGTSTP/SIGCONT.

        ``wait_if_stopped`` marks the host-side preemption points; kernels
        already launched continue regardless — asynchronous CUDA semantics.
        """
        while not self.is_finished:
            yield from ctx.proc.wait_if_stopped()
            host = self.host_phase(ctx)
            if host is not None:
                yield ctx.engine.timeout(host)
            yield from ctx.proc.wait_if_stopped()
            yield self.launch_step(ctx)
            self._account_step()
            self.after_step(ctx)
