"""Side-task runtimes: the state machine made executable.

A runtime owns one side task's process and drives its workload through
the Figure 4(a) life cycle. The manager initiates transitions through
RPCs; the runtime applies them at the granularity its interface allows:

* :class:`IterativeRuntime` checks for pending transition RPCs between
  steps and enforces the **program-directed** time limit — a step only
  runs when the bubble's remaining time covers the profiled step duration
  plus a safety margin (section 4.5). Every step runs as callbacks on
  the step's own timers and kernel event (:class:`_StepDriver`), from
  the task's phases (``host_phase``, ``launch_step``, ``after_step``),
  with a fault injector's failed steps and straggler delays as timers of
  their own;
* :class:`ImperativeRuntime` maps pause/resume onto SIGTSTP/SIGCONT; the
  stop signal cannot recall kernels already on the device, so those
  overlap with training (section 5).

Both maintain ``last_paused_at``, the timestamp the framework-enforced
mechanism inspects after its grace period.
"""

from __future__ import annotations

import collections
import dataclasses
import enum
import math
import typing

from repro import calibration
from repro.core.interfaces import (
    JITTER_SIGMA,
    ImperativeSideTask,
    IterativeSideTask,
    SideTaskBase,
    SideTaskContext,
    step_split,
)
from repro.core.rpc import RpcChannel
from repro.core.states import SideTaskState, StateMachine, Transition
from repro.core.task_spec import TaskSpec
from repro.errors import GpuOutOfMemoryError, ProcessKilledError, SideTaskError
from repro.sim.events import Interrupt, SimEvent
from repro.sim.rng import RandomStreams
from repro.sim.signals import Signal

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.gpu.container import Container
    from repro.gpu.process import GPUProcess
    from repro.sim.engine import Engine


class CommandKind(enum.Enum):
    INIT = "InitSideTask"
    START = "StartSideTask"
    PAUSE = "PauseSideTask"
    STOP = "StopSideTask"


# Enum members read on every step, bound once: on Python 3.11 a member
# read through its class goes through the Enum metaclass's __getattr__.
_RUNNING = SideTaskState.RUNNING
_RUN_NEXT_STEP = Transition.RUN_NEXT_STEP


@dataclasses.dataclass(frozen=True)
class Command:
    kind: CommandKind
    #: for START: when the manager expects the current bubble to end
    bubble_end: float | None = None


class SideTaskRuntime:
    """State, accounting, and command plumbing shared by both interfaces."""

    def __init__(
        self,
        sim: "Engine",
        spec: TaskSpec,
        proc: "GPUProcess",
        container: "Container",
        rng: RandomStreams,
        on_terminal: typing.Callable[["SideTaskRuntime"], None] | None = None,
    ):
        self.sim = sim
        self.spec = spec
        self.workload = spec.workload
        self.proc = proc
        self.container = container
        self.machine = StateMachine(task_id=spec.name)
        self.rpc = RpcChannel(sim, name=f"rpc:{spec.name}")
        self.ctx = SideTaskContext(sim, proc, rng, task_name=spec.name)
        self.on_terminal = on_terminal
        #: called after externally visible transitions (wired to the manager)
        self.notify: typing.Callable[["SideTaskRuntime"], None] | None = None
        #: set once the worker returned this task's memory reservation
        self.released = False
        #: last time a pause took effect — read by the framework-enforced limit
        self.last_paused_at = float("-inf")
        self.failure: str | None = None
        # bubble-time accounting (Figure 9)
        self.running_s = 0.0
        self.overhead_s = 0.0
        self.insufficient_s = 0.0
        self.init_s = 0.0
        # fault-tolerance plumbing (set by the worker; inert when None)
        self.injector = None
        self.stage = -1
        #: the worker currently holding this task's memory reservation
        self.reserved_worker = None
        # recovery accounting
        self.checkpoint_s = 0.0
        self.restore_s = 0.0
        self.slowdown_s = 0.0
        self.wasted_steps = 0
        self.wasted_s = 0.0
        self.step_failures = 0
        self.checkpoints = 0
        self.preemptions = 0
        self.restores = 0
        self._snapshot: dict | None = None
        self._preempting = False
        self._commands: collections.deque[Command] = collections.deque()
        self._command_event = None
        self._main = None
        # Observability: only a traced run pays for the transition
        # observer (emission appends to a list; it never touches the
        # event heap or any RNG stream, so traced runs stay byte-
        # identical to untraced ones).
        self._trace_running_since: float | None = None
        if sim.trace.enabled:
            self.machine.observer = self._trace_transition

    def _trace_transition(self, now: float, state: SideTaskState) -> None:
        """Span-tracer seam: one instant per state change, plus a complete
        span covering each RUNNING interval, closed by the change that
        leaves RUNNING."""
        trace = self.sim.trace
        track = ("tasks", self.spec.name)
        if self._trace_running_since is not None:
            trace.complete("RUNNING", self._trace_running_since, now,
                           cat="task.state", track=track)
        self._trace_running_since = now if state is _RUNNING else None
        trace.instant(state.value, now, cat="task.state", track=track)

    # ------------------------------------------------------------------
    # life cycle driven by the worker/manager
    # ------------------------------------------------------------------
    @property
    def state(self) -> SideTaskState:
        return self.machine.state

    @property
    def alive(self) -> bool:
        return self.proc.alive and not self.machine.terminated

    def create(self) -> None:
        """CreateSideTask: load host context, spawn the interface loop."""
        self.workload.create_side_task()
        self.machine.apply(Transition.CREATE, self.sim.now)
        # The birth snapshot: preemption before any checkpoint rolls the
        # task all the way back (restart-from-scratch semantics).
        self._snapshot = self.workload.checkpoint_state()
        self._main = self.proc.attach(
            self.sim.process(
                self._guarded(self._main_loop()), name=f"task:{self.spec.name}"
            )
        )

    def deliver(self, command: Command) -> None:
        """RPC arrival point (already delayed by the channel)."""
        if not self.alive:
            return
        self._commands.append(command)
        if self._command_event is not None and self._command_event.pending:
            self._command_event.succeed()

    def kill(self, reason: str) -> None:
        """SIGKILL path (framework-enforced limit, OOM, teardown)."""
        self.failure = reason
        self.container.record_fault(self.proc, reason)
        self.proc.kill(reason)
        self._terminal()

    def preempt(self, reason: str) -> None:
        """Take the task's process away but keep the task resumable.

        The crash path for checkpointed tasks: progress rolls back to the
        last snapshot (wasted-work accounting records the difference),
        the process dies, and the task parks in PREEMPTED until a worker
        restores it. Tasks that cannot legally preempt are killed.
        """
        if self.spec.checkpoint is None or not self.machine.can_apply(
            Transition.PREEMPT
        ):
            self.kill(reason)
            return
        snapshot_steps = (self._snapshot or {}).get("steps_done", 0)
        lost = max(0, self.workload.steps_done - snapshot_steps)
        self.wasted_steps += lost
        step_time = self.spec.profile.step_time_s or 0.0
        self.wasted_s += lost * step_time
        self.preemptions += 1
        telemetry = self.sim.telemetry
        telemetry.counter("tasks.preemptions").add()
        if lost:
            telemetry.counter("tasks.wasted_steps").add(lost)
        self.machine.apply(Transition.PREEMPT, self.sim.now)
        # The interrupt lands in the guarded loop a beat later; the flag
        # tells it this death is a preemption, not a terminal stop.
        self._preempting = True
        self.proc.kill(reason)
        if self._snapshot is not None:
            self.workload.restore_state(self._snapshot)
        self.workload.gpu_loaded = False
        self._notify()

    def restore_on(self, proc: "GPUProcess", stage: int | None = None) -> None:
        """Resume a PREEMPTED task on a fresh process (worker-side seam)."""
        self.proc = proc
        if stage is not None:
            self.stage = stage
        # Same RandomStreams, so the task's jitter stream continues where
        # it left off — restore never forks the randomness.
        self.ctx = SideTaskContext(
            self.sim, proc, self.ctx.rng, task_name=self.spec.name
        )
        self.released = False
        self.restores += 1
        self.machine.apply(Transition.RESTORE, self.sim.now)
        self._commands.clear()
        self._command_event = None
        self._main = self.proc.attach(
            self.sim.process(
                self._guarded(self._restore_loop()),
                name=f"task:{self.spec.name}:r{self.restores}",
            )
        )
        self._notify()

    def abandon(self, reason: str) -> None:
        """Give up on a parked PREEMPTED task (teardown, no capacity)."""
        if self.machine.terminated:
            return
        if self.failure is None:
            self.failure = reason
        self._terminal()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _guarded(self, body):
        try:
            yield from body
        except Interrupt:
            pass  # killed: terminal handling below
        except GpuOutOfMemoryError as exc:
            # MPS kills the offending process only (paper section 4.5).
            self.failure = f"OOM: {exc}"
            self.container.record_fault(self.proc, self.failure)
            self.proc.kill("OOM")
        except ProcessKilledError:
            pass
        if self._preempting:
            # Preemption killed the process, not the task: the PREEMPTED
            # machine state survives for a later restore.
            self._preempting = False
            return
        self._terminal()

    def _restore_loop(self):
        """Reload the GPU context from the snapshot, then rejoin the loop."""
        policy = self.spec.checkpoint
        start = self.sim.now
        self.workload.init_side_task(self.ctx)  # may raise OOM
        reload_s = (policy.restore_cost_s if policy is not None else 0.0) + (
            self.spec.profile.gpu_memory_gb / calibration.H2D_BANDWIDTH_GB_S
        )
        if reload_s > 0:
            yield self.sim.timeout(reload_s)
        self.restore_s += self.sim.now - start
        self.last_paused_at = self.sim.now
        self._notify()
        yield from self._main_loop()

    def _main_loop(self):  # pragma: no cover - overridden
        raise NotImplementedError
        yield  # make this a generator

    def _terminal(self) -> None:
        if self.machine.can_apply(Transition.STOP):
            self.machine.apply(Transition.STOP, self.sim.now)
        if self.on_terminal is not None:
            callback, self.on_terminal = self.on_terminal, None
            callback(self)

    def _notify(self) -> None:
        if self.notify is not None:
            self.notify(self)

    def _wait_for_command_event(self):
        """Block until at least one command is queued."""
        while not self._commands:
            if self._command_event is None or self._command_event.processed:
                self._command_event = self.sim.event(
                    name=f"{self.spec.name}:cmd"
                )
            yield self._command_event

    def _next_command(self):
        yield from self._wait_for_command_event()
        return self._commands.popleft()

    def _do_init(self):
        """InitSideTask: allocate and upload the GPU context."""
        start = self.sim.now
        self.workload.init_side_task(self.ctx)  # may raise OOM
        transfer_s = (
            self.spec.profile.gpu_memory_gb / calibration.H2D_BANDWIDTH_GB_S
        )
        if transfer_s > 0:
            yield self.sim.timeout(transfer_s)
        self.machine.apply(Transition.INIT, self.sim.now)
        self.last_paused_at = self.sim.now
        self.init_s += self.sim.now - start
        self._notify()

    def _stop_cleanly(self):
        self.workload.stop_side_task(self.ctx)
        if self.machine.can_apply(Transition.STOP):
            self.machine.apply(Transition.STOP, self.sim.now)


class IterativeRuntime(SideTaskRuntime):
    """The iterative interface: step loop with the program-directed gate."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if not isinstance(self.workload, IterativeSideTask):
            raise TypeError(
                f"{self.workload.name} is not an IterativeSideTask"
            )
        if self.spec.profile.step_time_s is None:
            # both the program-directed limit and a failed step need it
            raise SideTaskError(f"{self.spec.name} has no profiled step time")

    def _main_loop(self):
        while True:
            command = yield from self._next_command()
            if command.kind is CommandKind.INIT:
                if self.machine.can_apply(Transition.INIT):
                    yield from self._do_init()
            elif command.kind is CommandKind.START:
                if self.machine.can_apply(Transition.START):
                    self.machine.apply(Transition.START, self.sim.now)
                    # Interface dispatch + CUDA context reactivation before
                    # the first step of this bubble can launch.
                    resume = calibration.TASK_RESUME_LATENCY_S
                    if resume > 0:
                        yield self.sim.timeout(resume)
                        self.overhead_s += resume
                    stop = yield from self._running_loop(command.bubble_end)
                    if stop:
                        break
            elif command.kind is CommandKind.PAUSE:
                # Already paused (e.g. duplicate RPC): refresh the timestamp.
                self.last_paused_at = self.sim.now
            elif command.kind is CommandKind.STOP:
                break
        self._stop_cleanly()

    def _running_loop(self, bubble_end: float | None):
        """Run steps while RUNNING; returns True when STOP arrived."""
        # The step driver reads the runtime's collaborators once per
        # START: a restore replaces ctx, injector and stage only on a new
        # loop.
        driver = _StepDriver(self)
        while self.machine.state is _RUNNING:
            if self._commands:
                command = self._commands.popleft()
                if command.kind is CommandKind.PAUSE:
                    self.machine.apply(Transition.PAUSE, self.sim.now)
                    self.last_paused_at = self.sim.now
                    self._notify()
                    return False
                if command.kind is CommandKind.STOP:
                    return True
                if command.kind is CommandKind.START:
                    bubble_end = command.bubble_end  # refreshed window
                continue
            if not _step_fits(self.sim.now, driver.reach, bubble_end):
                # Program-directed limit: idle out the bubble's tail.
                wait_start = self.sim.now
                yield from self._wait_for_command_event()
                idle_end = min(self.sim.now, max(bubble_end, wait_start))
                self.insufficient_s += max(0.0, idle_end - wait_start)
                continue
            # Steps run as callbacks until one of this loop's checks
            # fails; the driver then resumes this generator in place,
            # right after a step.
            yield driver.start(bubble_end)
            if self.workload.is_finished:
                return True
            if self._should_checkpoint():
                yield from self._take_checkpoint()
        return False

    def _should_checkpoint(self) -> bool:
        policy = self.spec.checkpoint
        if policy is None or policy.interval_steps <= 0:
            return False
        if self.machine.state is not _RUNNING:
            return False
        done = self.workload.steps_done - (self._snapshot or {}).get(
            "steps_done", 0
        )
        return done >= policy.interval_steps

    def _take_checkpoint(self):
        policy = self.spec.checkpoint
        self.machine.apply(Transition.CHECKPOINT, self.sim.now)
        start = self.sim.now
        if policy.checkpoint_cost_s > 0:
            yield self.sim.timeout(policy.checkpoint_cost_s)
        self.checkpoint_s += self.sim.now - start
        self._snapshot = self.workload.checkpoint_state()
        self.checkpoints += 1
        # A kill mid-checkpoint lands the machine in STOPPED before this
        # generator resumes; only a still-checkpointing task resumes.
        if self.machine.state is SideTaskState.CHECKPOINTED:
            self.machine.apply(Transition.RESUME, self.sim.now)


def _step_fits(now: float, reach: float, bubble_end: float | None) -> bool:
    """The program-directed limit: may a step start at ``now``?

    ``reach`` is the profiled step time times the safety margin; a step
    fits when ``now + reach`` does not pass the bubble's end, or the end
    is unknown. Written as ``<=`` so a NaN bubble end never fits.
    """
    return bubble_end is None or now + reach <= bubble_end


class _StepDriver:
    """Runs an iterative task's steps as callbacks on their own entries.

    A step's timers are bare heap entries (``Engine.call_later``), each
    at the instant, and with the ``(time, seq)`` key, of the timeout a
    process stepping the task itself would wait on, and the kernel is
    its own completion event. Every RNG draw and state change lands on
    that entry:

    * :meth:`_on_overhead`, the overhead timer: ``overhead_s``, then
      :meth:`_step`: the injector's failure check, the step's start
      (``RunNextStep``), the host phase and the host timer;
    * :meth:`_on_host`, the host timer: :meth:`_launch`, the step's
      launch;
    * :meth:`_on_done`, the kernel's completion: the step's accounting,
      ``after_step``, the injector's straggler factor and
      ``running_s``, then the loop's checks in its order (finished,
      checkpoint due, state, commands, fit) and the next overhead
      timer;
    * :meth:`_on_fault`, the injector's timer: a failed step's lost
      time or the time a straggler window adds to a step, after which
      the loop itself runs its checks and starts the next step.

    The stock phases are resolved once per START: the host and kernel
    seconds of :func:`step_split`, the task's normal source, its
    kernel's SM demand and name and the bound launch; each draw is
    ``ctx.jitter``'s, ``exp(0.0 + z * JITTER_SIGMA) * mean``, and a zero
    kernel mean draws nothing. The first stock step launches the
    driver's kernel and every later one relaunches it
    (:meth:`~repro.gpu.kernel.Kernel.relaunch`) with its own draw: the
    driver is the kernel's only waiter, and a step launches only after
    the last one's :meth:`_on_done` has run. A phase the task's class
    overrides (``host_phase``, ``launch_step``, ``after_step``) is
    called instead.

    ``RunNextStep`` changes no state and leaves no ``history`` entry, so
    a step calls ``StateMachine.apply`` only when the machine is not
    RUNNING, where it raises :class:`~repro.errors.IllegalTransitionError`.
    The stock ``is_finished`` is always False, so the finished check
    reads the property only when the task's class overrides it, which
    is resolved once per START like the phases.

    A zero overhead or host time skips that timer: the next phase runs
    at once. A failed step always loses the profiled step time, which
    :class:`IterativeRuntime` requires. Meanwhile the process waits on
    ``wait``, an event that is never scheduled. When a check fails, or
    a phase raises, the driver resumes it in place (no event, no seq, no
    count), so :meth:`IterativeRuntime._running_loop` takes over at the
    same instant. A kill takes the process's callback off ``wait``;
    every later callback of the driver then does nothing, as a waiting
    process's removed resume callback would. The phases :meth:`start`
    runs before the process waits raise directly.
    """

    __slots__ = ("runtime", "engine", "machine", "commands", "workload",
                 "ctx", "checkpoint", "reach", "overhead", "injector",
                 "fail_s", "host_s", "kernel_s", "sm_demand", "kernel_name",
                 "normal", "compute_step", "launch_kernel", "kernel",
                 "host_phase", "launch_step", "after_step", "finite",
                 "bubble_end", "wait",
                 "step_start", "on_overhead", "on_host", "on_done",
                 "on_fault")

    def __init__(self, runtime: IterativeRuntime):
        self.runtime = runtime
        self.engine = runtime.sim
        self.machine = runtime.machine
        self.commands = runtime._commands
        self.workload = workload = runtime.workload
        self.ctx = ctx = runtime.ctx
        spec = runtime.spec
        self.checkpoint = spec.checkpoint
        # a failed step loses the profiled step time
        self.fail_s = step_time = spec.profile.step_time_s
        # now + step_time * margin, with the product rounded once here
        self.reach = step_time * (1.0 + calibration.STEP_FIT_SAFETY_MARGIN)
        self.overhead = calibration.ITERATIVE_STEP_OVERHEAD_S
        self.injector = runtime.injector
        # a phase the task's class overrides is called instead
        cls = type(workload)
        self.host_phase, self.launch_step, self.after_step = (
            None if getattr(cls, phase) is getattr(SideTaskBase, phase)
            else getattr(workload, phase)
            for phase in ("host_phase", "launch_step", "after_step"))
        # only a class that overrides is_finished can finish
        self.finite = cls.is_finished is not SideTaskBase.is_finished
        # the stock step, resolved once per START; an overridden host
        # phase replaces the stock host seconds
        perf = workload.perf
        host_s, self.kernel_s = step_split(perf)
        self.host_s = host_s if self.host_phase is None else 0.0
        self.sm_demand = perf.sm_demand
        self.kernel_name = workload.name
        self.normal = ctx.normal_source()
        self.compute_step = workload.compute_step
        self.launch_kernel = ctx.proc.launch_kernel
        #: the stock step's kernel, launched by the first step
        self.kernel = None
        self.bubble_end: float | None = None
        self.wait: SimEvent | None = None
        self.step_start = 0.0
        # bound once: one of them is registered on every step's entries
        self.on_overhead = self._on_overhead
        self.on_host = self._on_host
        self.on_done = self._on_done
        self.on_fault = self._on_fault

    def start(self, bubble_end: float | None) -> SimEvent:
        """Start a step; returns the event the process waits on."""
        self.bubble_end = bubble_end
        self.wait = wait = SimEvent(self.engine)
        if self.overhead > 0:
            self.engine.call_later(self.overhead, self.on_overhead)
        else:
            self._step()
        return wait

    def _resume(self, exception: BaseException | None = None) -> None:
        """Resume the waiting process in place, with ``exception`` thrown
        into it when given."""
        wait = self.wait
        resume = wait.callbacks.pop()
        wait._exception = exception
        resume(wait)

    def _step(self) -> None:
        """A step attempt: a failed one's lost time, or ``RunNextStep``
        and the host phase; without one, the launch."""
        now = self.engine.now
        self.step_start = now
        if self.injector is not None and self.injector.step_fails(
                self.runtime.spec.name):
            # The step runs but its result is lost; it runs again.
            self.engine.call_later(self.fail_s, self.on_fault)
            return
        if self.machine.state is not _RUNNING:
            self.machine.apply(_RUN_NEXT_STEP, now)  # raises
        host_s = self.host_s
        if host_s > 0:
            self.engine.call_later(
                math.exp(0.0 + self.normal() * JITTER_SIGMA) * host_s,
                self.on_host)
        elif self.host_phase is None or (
                host_s := self.host_phase(self.ctx)) is None:
            self._launch()
        else:
            self.engine.call_later(host_s, self.on_host)

    def _launch(self) -> None:
        """The step's launch: ``compute_step``, the kernel draw and the
        kernel."""
        if self.launch_step is not None:
            kernel = self.launch_step(self.ctx)
        else:
            self.compute_step()
            kernel_s = self.kernel_s
            work_s = (0.0 if kernel_s <= 0 else
                      math.exp(0.0 + self.normal() * JITTER_SIGMA) * kernel_s)
            kernel = self.kernel
            if kernel is None:
                kernel = self.kernel = self.launch_kernel(
                    work_s, self.sm_demand, self.kernel_name)
            else:
                kernel.relaunch(work_s)
        kernel.callbacks.append(self.on_done)

    def _on_overhead(self, _arg: None) -> None:
        if not self.wait.callbacks:
            return  # killed
        try:
            self.runtime.overhead_s += self.overhead
            self._step()
        except Exception as exc:  # noqa: BLE001 - the loop raises it
            self._resume(exc)

    def _on_host(self, _arg: None) -> None:
        if not self.wait.callbacks:
            return  # killed
        try:
            self._launch()
        except Exception as exc:  # noqa: BLE001 - the loop raises it
            self._resume(exc)

    def _on_done(self, kernel: SimEvent) -> None:
        if not self.wait.callbacks:
            return  # killed
        if kernel._exception is not None:
            self._resume(kernel._exception)
            return
        try:
            workload = self.workload
            workload._account_step()
            if self.after_step is not None:
                self.after_step(self.ctx)
            now = self.engine.now
            if self.injector is not None:
                # Straggler window: the step takes factor× its normal
                # time (the factor is 1.0 outside every window).
                added_s = (now - self.step_start) * (
                    self.injector.slowdown_factor(self.runtime.stage,
                                                  self.step_start) - 1.0)
                if added_s > 0:
                    self.engine.call_later(added_s, self.on_fault, added_s)
                    return
            runtime = self.runtime
            runtime.running_s += now - self.step_start
            if not ((self.finite and workload.is_finished)
                    or (self.checkpoint is not None
                        and runtime._should_checkpoint())
                    or self.machine.state is not _RUNNING
                    or self.commands
                    or not _step_fits(now, self.reach, self.bubble_end)):
                overhead = self.overhead
                if overhead > 0:
                    self.engine.call_later(overhead, self.on_overhead)
                else:
                    self._step()
                return
        except Exception as exc:  # noqa: BLE001 - the loop raises it
            self._resume(exc)
            return
        self._resume()

    def _on_fault(self, added_s: float | None) -> None:
        """A failed step's lost time (``added_s`` None), or the time a
        straggler window added to a step, has passed: its accounting,
        then the loop runs its checks and starts the next step."""
        if not self.wait.callbacks:
            return  # killed
        runtime = self.runtime
        if added_s is None:
            runtime.step_failures += 1
            runtime.wasted_s += self.engine.now - self.step_start
        else:
            runtime.slowdown_s += added_s
            runtime.running_s += self.engine.now - self.step_start
        self._resume()


class ImperativeRuntime(SideTaskRuntime):
    """The imperative interface: signals around ``run_gpu_workload``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if not isinstance(self.workload, ImperativeSideTask):
            raise TypeError(
                f"{self.workload.name} is not an ImperativeSideTask"
            )
        self._body = None

    def restore_on(self, proc, stage: int | None = None) -> None:
        # The old body died with the old process; START attaches a new one.
        self._body = None
        super().restore_on(proc, stage)

    def _main_loop(self):
        while True:
            command = yield from self._next_command()
            if command.kind is CommandKind.INIT:
                if self.machine.can_apply(Transition.INIT):
                    yield from self._do_init()
                    # Hold the process stopped until the first bubble.
                    self.proc.send_signal(Signal.SIGTSTP)
            elif command.kind is CommandKind.START:
                if not self.machine.can_apply(Transition.START):
                    continue
                # SIGCONT handler performs StartSideTask (paper section 4.2).
                yield self.sim.timeout(calibration.SIGNAL_PAUSE_LATENCY_S)
                self.machine.apply(Transition.START, self.sim.now)
                self.proc.send_signal(Signal.SIGCONT)
                if self._body is None:
                    self._body = self.proc.attach(
                        self.sim.process(
                            self._run_body(), name=f"{self.spec.name}:body"
                        )
                    )
            elif command.kind is CommandKind.PAUSE:
                if self.machine.state is SideTaskState.RUNNING:
                    # Signal delivery plus handler latency; in-flight
                    # kernels keep running — the imperative overhead.
                    yield self.sim.timeout(calibration.SIGNAL_PAUSE_LATENCY_S)
                    if self.machine.state is SideTaskState.RUNNING:
                        self.machine.apply(Transition.PAUSE, self.sim.now)
                        self.last_paused_at = self.sim.now
                        self.proc.send_signal(Signal.SIGTSTP)
                        self._notify()
            elif command.kind is CommandKind.STOP:
                break
        if self._body is not None and self._body.alive:
            self.proc.kill("stopped")
        else:
            self._stop_cleanly()

    def _run_body(self):
        try:
            yield from self.workload.run_gpu_workload(self.ctx)
        except (Interrupt, ProcessKilledError):
            return
        except GpuOutOfMemoryError as exc:
            self.failure = f"OOM: {exc}"
            self.container.record_fault(self.proc, self.failure)
            self.proc.kill("OOM")
            self._terminal()
