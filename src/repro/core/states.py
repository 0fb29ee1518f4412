"""The side-task life-cycle state machine (paper Figure 4a, extended).

Five states capture the life cycle of a side task "from process creation
to termination", each corresponding to a different hardware footprint:

* ``SUBMITTED`` — profiled and handed to the manager; no process yet;
* ``CREATED`` — the worker created the process; context in host memory
  only;
* ``PAUSED`` — context loaded into GPU memory, waiting for a bubble;
* ``RUNNING`` — executing steps on the GPU during a bubble;
* ``STOPPED`` — all resources released, process terminated.

Six transitions connect them; ``RunNextStep`` is the RUNNING self-loop the
iterative interface executes once per step. It is checked like any
other transition but, leaving the state unchanged, is not logged: a
machine's ``history`` lists its state changes.

The fault-tolerance layer (:mod:`repro.faults`) adds three recovery
states on top of the paper's machine:

* ``CHECKPOINTED`` — the task is persisting a resume point; it returns
  to RUNNING once the checkpoint write completes;
* ``PREEMPTED`` — the task's process is gone (worker crash or eviction)
  but its last checkpoint survives; the task is *resumable*, not dead;
* ``RESUMED`` — restored onto a worker from its checkpoint, waiting for
  a bubble exactly like PAUSED.

``STOPPED`` remains the only terminal state.
"""

from __future__ import annotations

import dataclasses
import enum
import typing

from repro.errors import IllegalTransitionError


class SideTaskState(enum.Enum):
    # Members are singletons compared by identity, so they hash by
    # identity too: the C-level object hash instead of Enum's Python-level
    # hash of the member name (string hashes are randomized per process,
    # so no output could depend on either order).
    __hash__ = object.__hash__

    SUBMITTED = "SUBMITTED"
    CREATED = "CREATED"
    PAUSED = "PAUSED"
    RUNNING = "RUNNING"
    STOPPED = "STOPPED"
    # recovery states (fault-tolerance layer)
    CHECKPOINTED = "CHECKPOINTED"
    PREEMPTED = "PREEMPTED"
    RESUMED = "RESUMED"


class Transition(enum.Enum):
    __hash__ = object.__hash__  # identity, as for SideTaskState

    CREATE = "CreateSideTask"
    INIT = "InitSideTask"
    START = "StartSideTask"
    PAUSE = "PauseSideTask"
    RUN_NEXT_STEP = "RunNextStep"
    STOP = "StopSideTask"
    # recovery transitions (fault-tolerance layer)
    CHECKPOINT = "CheckpointSideTask"
    RESUME = "ResumeSideTask"
    PREEMPT = "PreemptSideTask"
    RESTORE = "RestoreSideTask"


#: the paper's six transitions (Figure 4a); the rest belong to the
#: fault-tolerance layer
CORE_TRANSITIONS = (
    Transition.CREATE, Transition.INIT, Transition.START,
    Transition.PAUSE, Transition.RUN_NEXT_STEP, Transition.STOP,
)

#: (from-state, transition) -> to-state; the arrows of Figure 4(a) plus
#: the recovery edges.
TRANSITION_TABLE: dict[tuple[SideTaskState, Transition], SideTaskState] = {
    (SideTaskState.SUBMITTED, Transition.CREATE): SideTaskState.CREATED,
    (SideTaskState.CREATED, Transition.INIT): SideTaskState.PAUSED,
    (SideTaskState.PAUSED, Transition.START): SideTaskState.RUNNING,
    (SideTaskState.RUNNING, Transition.PAUSE): SideTaskState.PAUSED,
    (SideTaskState.RUNNING, Transition.RUN_NEXT_STEP): SideTaskState.RUNNING,
    (SideTaskState.CREATED, Transition.STOP): SideTaskState.STOPPED,
    (SideTaskState.PAUSED, Transition.STOP): SideTaskState.STOPPED,
    (SideTaskState.RUNNING, Transition.STOP): SideTaskState.STOPPED,
    # checkpointing: a RUNNING task persists a resume point, then resumes
    (SideTaskState.RUNNING, Transition.CHECKPOINT): SideTaskState.CHECKPOINTED,
    (SideTaskState.CHECKPOINTED, Transition.RESUME): SideTaskState.RUNNING,
    # preemption: any state with a live process can lose it
    (SideTaskState.CREATED, Transition.PREEMPT): SideTaskState.PREEMPTED,
    (SideTaskState.PAUSED, Transition.PREEMPT): SideTaskState.PREEMPTED,
    (SideTaskState.RUNNING, Transition.PREEMPT): SideTaskState.PREEMPTED,
    (SideTaskState.CHECKPOINTED, Transition.PREEMPT): SideTaskState.PREEMPTED,
    (SideTaskState.RESUMED, Transition.PREEMPT): SideTaskState.PREEMPTED,
    # restore: back onto a worker, then started like a PAUSED task
    (SideTaskState.PREEMPTED, Transition.RESTORE): SideTaskState.RESUMED,
    (SideTaskState.RESUMED, Transition.START): SideTaskState.RUNNING,
    # teardown is reachable from every recovery state
    (SideTaskState.CHECKPOINTED, Transition.STOP): SideTaskState.STOPPED,
    (SideTaskState.PREEMPTED, Transition.STOP): SideTaskState.STOPPED,
    (SideTaskState.RESUMED, Transition.STOP): SideTaskState.STOPPED,
}


def legal_transitions(state: SideTaskState) -> set[Transition]:
    """The transitions permitted from ``state``."""
    return {
        transition
        for (from_state, transition) in TRANSITION_TABLE
        if from_state is state
    }


@dataclasses.dataclass
class StateMachine:
    """Tracks one side task's state with legality checking and history."""

    state: SideTaskState = SideTaskState.SUBMITTED
    #: ``(now, new_state)`` per state change, in order; the
    #: ``RunNextStep`` self-loop changes no state and adds no entry
    history: list[tuple[float, SideTaskState]] = dataclasses.field(
        default_factory=list
    )
    #: owning task's name, embedded in IllegalTransitionError messages
    task_id: str = ""
    #: observability seam: called as ``observer(now, new_state)`` after
    #: each state change, as ``history`` records it; None (the default)
    #: costs one comparison per change — the runtime installs one only
    #: when tracing is on
    observer: "typing.Callable[[float, SideTaskState], None] | None" = (
        dataclasses.field(default=None, repr=False, compare=False)
    )

    def apply(self, transition: Transition, now: float = 0.0) -> SideTaskState:
        """Apply ``transition``; raises :class:`IllegalTransitionError`.

        A legal transition that leaves the state unchanged (the
        ``RunNextStep`` self-loop) returns at once: no ``history`` entry
        and no observer call.
        """
        state = TRANSITION_TABLE.get((self.state, transition))
        if state is None:
            raise IllegalTransitionError(
                self.state.value, transition.value, task_id=self.task_id
            )
        if state is self.state:
            return state
        self.state = state
        self.history.append((now, state))
        if self.observer is not None:
            self.observer(now, state)
        return state

    def can_apply(self, transition: Transition) -> bool:
        return (self.state, transition) in TRANSITION_TABLE

    @property
    def terminated(self) -> bool:
        return self.state is SideTaskState.STOPPED

    @property
    def resumable(self) -> bool:
        """Preempted with a checkpoint to restore from — not dead."""
        return self.state is SideTaskState.PREEMPTED

    def time_in_state(self, state: SideTaskState, until: float) -> float:
        """Total virtual time spent in ``state`` up to ``until``."""
        total = 0.0
        current = SideTaskState.SUBMITTED
        since = 0.0
        for when, new_state in self.history:
            if current is state:
                total += when - since
            current, since = new_state, when
        if current is state:
            total += until - since
        return total
