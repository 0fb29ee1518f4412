"""The side-task manager: Algorithms 1 and 2 of the paper.

**Algorithm 1** (``submit``): filter workers by available GPU memory, pick
the least-loaded, otherwise reject the task.

**Algorithm 2** (``_sweep``): for every worker — if its current bubble has
ended, pause the current task and clear the bubble; adopt a newly reported
bubble; if no current task, take the oldest from the queue; initiate
``InitSideTask`` for CREATED tasks and ``StartSideTask`` (with the bubble's
expected end time, feeding the program-directed limit) for PAUSED ones.

The paper's manager runs this as a polling loop; polling a 2 ms loop in a
discrete-event simulation would add millions of no-op events, so the sweep
here is *event-driven*: it runs whenever something it reads changes (a
bubble report, a bubble's expected end, a task transition, a submission),
plus a coarse heartbeat. The decisions taken are identical.

The manager also schedules the **framework-enforced** checks: after
initiating a pause it waits the grace period and, if the task's
``last_paused_at`` was not refreshed, instructs the worker to SIGKILL the
process (section 4.5). ``InitSideTask`` is protected the same way.
"""

from __future__ import annotations

import typing

from repro import calibration
from repro.core.policies import AssignmentPolicy, least_loaded_policy
from repro.core.rpc import RpcChannel
from repro.core.runtime import Command, CommandKind, SideTaskRuntime
from repro.core.states import SideTaskState, Transition
from repro.core.task_spec import TaskSpec
from repro.core.worker import ManagedBubble, SideTaskWorker
from repro.errors import TaskRejectedError

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine

# Enum members Algorithm 2 reads on every worker visit, bound once: on
# Python 3.11 a member read through its class goes through the Enum
# metaclass's __getattr__.
_CREATED = SideTaskState.CREATED
_PAUSED = SideTaskState.PAUSED
_RUNNING = SideTaskState.RUNNING
_STOPPED = SideTaskState.STOPPED
_CHECKPOINTED = SideTaskState.CHECKPOINTED
_RESUMED = SideTaskState.RESUMED
_INIT = CommandKind.INIT
_START = CommandKind.START
_PAUSE = CommandKind.PAUSE


class SideTaskManager:
    """Coordinates workers, bubbles, and side-task state transitions."""

    def __init__(
        self,
        sim: "Engine",
        workers: list[SideTaskWorker],
        policy: AssignmentPolicy = least_loaded_policy,
        rpc_latency_s: float = calibration.RPC_LATENCY_S,
        grace_period_s: float = calibration.GRACE_PERIOD_S,
    ):
        self.sim = sim
        self.workers = list(workers)
        self.policy = policy
        self.grace_period_s = grace_period_s
        self.rpc = RpcChannel(sim, "manager", latency_s=rpc_latency_s)
        self.rejections: list[tuple[str, str]] = []
        #: called with each task runtime after it reaches a terminal state
        #: (the serving frontend uses this to re-dispatch queued requests)
        self.terminal_listeners: list[
            typing.Callable[[SideTaskRuntime], None]
        ] = []
        #: called when serving capacity returns (a crashed worker
        #: restarts) — re-queued requests may be dispatchable again
        self.capacity_listeners: list[typing.Callable[[], None]] = []
        #: per-runtime command the manager sent and has not seen take effect
        self._pending: dict[int, CommandKind] = {}
        #: PREEMPTED tasks parked until a worker can restore them
        self.preempted: list[SideTaskRuntime] = []
        #: set at teardown (:meth:`close`): parked tasks are abandoned,
        #: never restored, since no STOP would reach a restored one
        self.closed = False
        self._sweep_scheduled = False

    # ------------------------------------------------------------------
    # Algorithm 1: task submission
    # ------------------------------------------------------------------
    def eligible_workers(self, gpu_memory_gb: float) -> list[SideTaskWorker]:
        """Algorithm 1 line 5: workers with *strictly* more unreserved
        bubble memory than the task needs. The single definition of
        memory eligibility — the middleware and the serving frontend
        consult it too."""
        return [
            worker for worker in self.workers
            if not worker.crashed and worker.available_gb > gpu_memory_gb
        ]

    def submit(self, spec: TaskSpec, interface: str = "iterative",
               queue_depth: int = 0) -> SideTaskWorker:
        """Assign ``spec`` to a worker or raise :class:`TaskRejectedError`.

        ``queue_depth`` is informational: how many requests the caller
        already has waiting (the serving frontend's admission queue; 0
        for the batch path), attached to the rejection so operators can
        tell "nothing fits" apart from "nothing fits *and* the backlog
        is growing".
        """
        eligible = self.eligible_workers(spec.profile.gpu_memory_gb)
        selected = self.policy(eligible, spec)
        if selected is None:
            policy_name = getattr(self.policy, "__name__", repr(self.policy))
            most_free = max(
                (worker.available_gb for worker in self.workers), default=0.0
            )
            reason = (
                f"no worker has more than {spec.profile.gpu_memory_gb:.2f} GB "
                f"of bubble memory available (policy={policy_name}, "
                f"{len(eligible)}/{len(self.workers)} workers eligible, "
                f"max free {most_free:.2f} GB, queue depth {queue_depth})"
            )
            self.rejections.append((spec.name, reason))
            raise TaskRejectedError(
                f"{spec.name} rejected: {reason}",
                task_name=spec.name,
                policy=policy_name,
                queue_depth=queue_depth,
                eligible_workers=len(eligible),
            )
        runtime = selected.add_task(
            spec, interface, on_terminal=self._on_task_terminal
        )
        runtime.notify = self.notify_transition
        self._wake()
        return selected

    # ------------------------------------------------------------------
    # bubble reports from the instrumented training system
    # ------------------------------------------------------------------
    def add_bubble(self, bubble: ManagedBubble) -> None:
        """Step 5 of Figure 3: a bubble report arrives (already RPC-delayed)."""
        worker = self.workers[bubble.stage]
        worker.enqueue_bubble(bubble)
        if bubble.expected_end is not None:
            # Wake exactly when the manager believes the bubble ends.
            delay = max(0.0, bubble.expected_end - self.sim.now)
            self.sim.call_later(delay, self._wake)
        self._wake()

    def bubble_ended(self, stage: int, now: float) -> None:
        """The training system observed the bubble's actual end."""
        worker = self.workers[stage]
        if worker.current_bubble is not None:
            worker.current_bubble.reported_end = now
        for bubble in worker.bubble_inbox:
            if bubble.reported_end is None:
                bubble.reported_end = now
                break
        self._wake()

    # ------------------------------------------------------------------
    # Algorithm 2: the management sweep
    # ------------------------------------------------------------------
    def _wake(self, _arg: None = None) -> None:
        if self._sweep_scheduled:
            return
        self._sweep_scheduled = True
        self.sim.call_later(0.0, self._run_sweep)

    def _run_sweep(self, _arg: None) -> None:
        self._sweep_scheduled = False
        self._sweep()

    def _sweep(self) -> None:
        now = self.sim.now
        self._place_preempted()
        pending_of = self._pending
        # Enforcement timers are created *after* the worker loop so the
        # loop's command casts occupy adjacent heap slots and coalesce
        # into one event per sweep (see RpcChannel.cast). The timers
        # fire a grace period later — far from any same-instant tie —
        # so deferring their creation does not reorder the simulation.
        checks: "list[typing.Callable[[], None]]" = []
        for worker in self.workers:
            if worker.crashed:
                continue
            # Nothing in a visit changes a task's state (commands land
            # after the RPC latency), so it is read once per task.
            task = worker.current_task
            state = None if task is None else task.machine.state
            bubble = worker.current_bubble
            if bubble is not None and bubble.has_ended(now):
                # A task mid-checkpoint must also be paused: the PAUSE
                # command queues and lands when the checkpoint completes.
                if state is _RUNNING or state is _CHECKPOINTED:
                    self._initiate_pause(worker, task, checks)
                worker.current_bubble = None
            if worker.has_new_bubble():
                worker.update_current_bubble()
            if task is None or state is _STOPPED:
                if task is not None:
                    worker.release(task)
                worker.current_task = task = worker.next_task()
                if task is None:
                    continue
                state = task.machine.state
            pending = pending_of.get(id(task))
            if state is _CREATED:
                if pending is not _INIT:
                    self._initiate_init(worker, task, checks)
            elif state is _PAUSED or state is _RESUMED:
                if pending is _INIT or pending is _PAUSE:
                    del pending_of[id(task)]
                    pending = None
                bubble = worker.current_bubble
                if (
                    bubble is not None
                    and not bubble.has_ended(now)
                    and pending is not _START
                ):
                    self._initiate_start(task, bubble)
            elif state is _RUNNING:
                if pending is _START:
                    del pending_of[id(task)]
        for schedule_check in checks:
            schedule_check()

    # ------------------------------------------------------------------
    # transition initiation + framework-enforced protection
    # ------------------------------------------------------------------
    def _initiate_init(self, worker: SideTaskWorker, task: SideTaskRuntime,
                       checks: "list[typing.Callable[[], None]]") -> None:
        self._pending[id(task)] = CommandKind.INIT
        self.rpc.cast(task.deliver, Command(CommandKind.INIT))
        transfer_s = (
            task.spec.profile.gpu_memory_gb / calibration.H2D_BANDWIDTH_GB_S
        )
        deadline = self.grace_period_s + transfer_s
        checks.append(lambda: self._schedule_init_check(worker, task, deadline))

    def _schedule_init_check(self, worker: SideTaskWorker,
                             task: SideTaskRuntime, deadline: float) -> None:
        self.sim.call_later(
            deadline, lambda _arg: self._enforce_init(worker, task))

    def _initiate_start(self, task: SideTaskRuntime, bubble: ManagedBubble) -> None:
        self._pending[id(task)] = CommandKind.START
        self.rpc.cast(
            task.deliver,
            Command(CommandKind.START, bubble_end=bubble.end_estimate),
        )

    def _initiate_pause(self, worker: SideTaskWorker, task: SideTaskRuntime,
                        checks: "list[typing.Callable[[], None]]") -> None:
        self._pending[id(task)] = CommandKind.PAUSE
        initiated_at = self.sim.now
        self.rpc.cast(task.deliver, Command(CommandKind.PAUSE))
        checks.append(
            lambda: self._schedule_pause_check(worker, task, initiated_at)
        )

    def _schedule_pause_check(self, worker: SideTaskWorker,
                              task: SideTaskRuntime,
                              initiated_at: float) -> None:
        self.sim.call_later(
            self.grace_period_s,
            lambda _arg: self._enforce_pause(worker, task, initiated_at))

    def stop_task(self, task: SideTaskRuntime) -> None:
        """Graceful StopSideTask via RPC."""
        self.rpc.cast(task.deliver, Command(CommandKind.STOP))

    def _enforce_pause(
        self, worker: SideTaskWorker, task: SideTaskRuntime, initiated_at: float
    ) -> None:
        """Kill the task if the pause never took effect (section 4.5)."""
        if not task.alive:
            return
        if task.last_paused_at >= initiated_at:
            return
        if task.state is not SideTaskState.RUNNING:
            return
        worker.kill_task(task, "framework-enforced time limit (pause timeout)")
        self._wake()

    def _enforce_init(self, worker: SideTaskWorker, task: SideTaskRuntime) -> None:
        if not task.alive:
            return
        if task.state is SideTaskState.CREATED:
            worker.kill_task(task, "framework-enforced time limit (init timeout)")
            self._wake()

    # ------------------------------------------------------------------
    # worker crashes (fault-injection layer)
    # ------------------------------------------------------------------
    def crash_worker(self, stage: int,
                     restart_after_s: float | None = None) -> None:
        """Worker ``stage`` dies now; optionally restarts after a delay.

        Every live task on the worker loses its process: checkpointed
        tasks are preempted (parked for a later restore on any eligible
        worker), the rest are killed outright.
        """
        worker = self.workers[stage]
        if worker.crashed:
            return
        worker.crash(self.sim.now)
        reason = f"worker {stage} crashed"
        for task in [t for t in worker.all_tasks if not t.machine.terminated]:
            self._pending.pop(id(task), None)
            if task.spec.checkpoint is not None and task.machine.can_apply(
                Transition.PREEMPT
            ):
                task.preempt(reason)
                if task in worker.task_queue:
                    worker.task_queue.remove(task)
                if worker.current_task is task:
                    worker.current_task = None
                worker.release(task)
                self.preempted.append(task)
            else:
                worker.kill_task(task, reason)
        if restart_after_s is not None:
            self.sim.call_later(restart_after_s, self._restart_worker, stage)
        self._wake()

    def _restart_worker(self, stage: int) -> None:
        self.workers[stage].restart(self.sim.now)
        self._wake()
        for listener in self.capacity_listeners:
            listener()

    def close(self) -> None:
        """Teardown began: abandon the parked tasks, now and whenever a
        later crash preempts one."""
        self.closed = True
        self._place_preempted()

    def _place_preempted(self) -> None:
        """Restore parked tasks wherever Algorithm 1 finds room."""
        if not self.preempted:
            return
        if self.closed:
            for task in list(self.preempted):
                task.abandon("preempted at teardown (never restored)")
            return
        waiting: list[SideTaskRuntime] = []
        for task in self.preempted:
            if task.machine.terminated:
                continue
            eligible = self.eligible_workers(task.spec.profile.gpu_memory_gb)
            selected = self.policy(eligible, task.spec)
            if selected is None:
                waiting.append(task)
                continue
            selected.adopt_restored(task)
        self.preempted = waiting

    # ------------------------------------------------------------------
    def _on_task_terminal(self, task: SideTaskRuntime) -> None:
        self._pending.pop(id(task), None)
        if task in self.preempted:
            self.preempted.remove(task)
        for worker in self.workers:
            if worker.current_task is task:
                worker.current_task = None
            if task in worker.all_tasks:
                worker.release(task)
        for listener in self.terminal_listeners:
            listener(task)
        self._wake()

    def live_tasks(self) -> list[SideTaskRuntime]:
        # A restored task appears in two workers' ledgers; report it once.
        seen: set[int] = set()
        live: list[SideTaskRuntime] = []
        for worker in self.workers:
            for task in worker.all_tasks:
                if not task.machine.terminated and id(task) not in seen:
                    seen.add(id(task))
                    live.append(task)
        return live

    def notify_transition(self, _task: SideTaskRuntime) -> None:
        """Runtimes call this (via middleware wiring) after transitions."""
        self._wake()
