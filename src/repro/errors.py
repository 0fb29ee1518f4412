"""Exception hierarchy for the FreeRide reproduction.

Every package raises errors derived from :class:`ReproError` so callers can
catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SimulationError(ReproError):
    """Raised when the discrete-event simulation is driven incorrectly."""


class GpuError(ReproError):
    """Base class for errors raised by the simulated GPU substrate."""


class GpuOutOfMemoryError(GpuError):
    """A process exceeded its GPU memory allocation or limit.

    Mirrors the CUDA out-of-memory error that MPS raises for the offending
    process only (paper section 4.5): the failing process dies, other
    processes on the device are unaffected.
    """

    def __init__(self, message: str, requested_gb: float = 0.0, limit_gb: float = 0.0):
        super().__init__(message)
        self.requested_gb = requested_gb
        self.limit_gb = limit_gb


class ProcessKilledError(GpuError):
    """The simulated process received SIGKILL."""


class PipelineError(ReproError):
    """Raised on invalid pipeline-training configuration or scheduling."""


class SideTaskError(ReproError):
    """Base class for side-task failures."""


class IllegalTransitionError(SideTaskError):
    """A state transition not permitted by the FreeRide state machine.

    The message names the offending task (when known), the state it is
    in, and the transition that was attempted — the three facts needed
    to debug a life-cycle bug from a log line alone.
    """

    def __init__(self, current: str, requested: str, task_id: str = ""):
        task = f" for task {task_id!r}" if task_id else ""
        super().__init__(
            f"illegal side-task transition{task}: "
            f"{requested} is not legal from state {current}"
        )
        self.current = current
        self.requested = requested
        self.task_id = task_id


class TaskRejectedError(SideTaskError):
    """Algorithm 1 rejected a side task (no worker has enough GPU memory).

    Carries the context a caller needs to act on the rejection: which
    assignment policy said no, how many workers were eligible, and how
    deep the submission queue was at the time (0 for the batch path,
    which has no queue). The message embeds all of it.
    """

    def __init__(self, message: str, task_name: str = "",
                 policy: str = "", queue_depth: int = 0,
                 eligible_workers: int = 0):
        super().__init__(message)
        self.task_name = task_name
        self.policy = policy
        self.queue_depth = queue_depth
        self.eligible_workers = eligible_workers


class RpcError(ReproError):
    """An RPC could not be delivered (e.g. the peer is gone)."""


class SpecError(ReproError):
    """An invalid scenario spec: unknown field, bad override path, or a
    value outside the declarative API's vocabulary."""


class SweepConfigError(ReproError):
    """Invalid sweep-executor configuration: a garbage or non-positive
    ``REPRO_SWEEP_WORKERS``."""


class SessionError(ReproError):
    """A :class:`repro.api.session.Session` was driven out of order
    (results before run, submit after run, reconfigure mid-flight)."""
