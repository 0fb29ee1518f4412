"""The FreeRide middleware — the paper's primary contribution.

* :mod:`repro.core.states` — the five-state life-cycle state machine
  (paper Figure 4a);
* :mod:`repro.core.interfaces` — the **iterative** and **imperative**
  side-task programming interfaces (sections 4.2 and 5);
* :mod:`repro.core.runtime` — the state machine made executable,
  including the program-directed time limit and signal-based pausing;
* :mod:`repro.core.profiler` — the automated side-task profiler
  (section 4.3);
* :mod:`repro.core.manager` / :mod:`repro.core.worker` — Algorithms 1
  and 2, plus the framework-enforced kill mechanism (sections 4.4, 4.5);
* :mod:`repro.core.middleware` — the side-task pool wiring instrumented
  pipeline training to the side-task manager (Figure 3): ``Cluster``
  for many jobs (section 8) and :class:`FreeRide`, its one-job case.
"""

from repro.core.interfaces import (
    ImperativeSideTask,
    IterativeSideTask,
    SideTaskContext,
)
from repro.core.manager import SideTaskManager
from repro.core.middleware import FreeRide, FreeRideResult, TaskReport
from repro.core.policies import (
    AssignmentPolicy,
    NAMED_POLICIES,
    best_fit_policy,
    first_fit_policy,
    least_loaded_policy,
    worst_fit_policy,
)
from repro.core.profiler import profile_side_task
from repro.core.rpc import RpcChannel
from repro.core.runtime import (
    Command,
    CommandKind,
    ImperativeRuntime,
    IterativeRuntime,
    SideTaskRuntime,
)
from repro.core.states import (
    SideTaskState,
    StateMachine,
    Transition,
    legal_transitions,
)
from repro.core.task_spec import TaskProfile, TaskSpec
from repro.core.worker import ManagedBubble, SideTaskWorker

__all__ = [
    "AssignmentPolicy",
    "Command",
    "CommandKind",
    "FreeRide",
    "FreeRideResult",
    "ImperativeRuntime",
    "ImperativeSideTask",
    "IterativeRuntime",
    "IterativeSideTask",
    "ManagedBubble",
    "NAMED_POLICIES",
    "RpcChannel",
    "SideTaskContext",
    "SideTaskManager",
    "SideTaskRuntime",
    "SideTaskState",
    "SideTaskWorker",
    "StateMachine",
    "TaskProfile",
    "TaskReport",
    "TaskSpec",
    "Transition",
    "best_fit_policy",
    "first_fit_policy",
    "least_loaded_policy",
    "legal_transitions",
    "profile_side_task",
    "worst_fit_policy",
]
