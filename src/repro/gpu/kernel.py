"""Kernels: the unit of GPU work in the simulation.

A kernel carries ``work_s`` seconds of work (its duration when running
alone at full speed), an SM demand used for occupancy traces, a priority
class, and an :class:`Interference` spec describing how much it slows down
kernels of *other processes* that overlap with it under each sharing mode.
It is also its own completion event: :meth:`repro.gpu.device.SimGPU.launch`
returns it, and yielding it resumes with the kernel once it finishes.
While it runs it carries the device's run state for it (remaining work,
rate, the instant that work was settled, and the version of its
completion timer). Its owner may launch a completed kernel again, with
new work (:meth:`Kernel.relaunch`), once every waiter of its last run
has been called: the device resets the run state at each launch, and
the timer version keeps counting across runs, so a completion timer
superseded during an earlier run never completes a later one.

The interference coefficients for the evaluation's side tasks are fitted to
the paper's Table 2 (see :mod:`repro.calibration`); the device applies them
in :meth:`repro.gpu.device.SimGPU._slowdown`.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
import typing

from repro.errors import SimulationError
from repro.gpu.sharing import SharingMode
from repro.sim.events import PENDING, SimEvent

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.gpu.process import GPUProcess


class Priority(enum.IntEnum):
    """Scheduling priority classes.

    The paper gives pipeline training the highest MPS priority and side
    tasks a lower one (section 6.1.2).
    """

    SIDE = 1
    TRAINING = 2


@dataclasses.dataclass(frozen=True)
class Interference:
    """Fractional slowdown this kernel imposes on overlapping kernels.

    ``mps_on_higher``
        imposed on higher-priority kernels under MPS (side task slowing
        training down despite MPS priorities — concurrency is not free);
    ``mps_on_lower``
        imposed on lower- or equal-priority kernels under MPS (training
        starving a side task of SMs);
    ``time_slice``
        imposed on any other process's kernels under naive time-slicing.
    """

    mps_on_higher: float = 0.0
    mps_on_lower: float = 0.0
    time_slice: float = 1.0

    def imposed_on(self, victim_priority: Priority, own_priority: Priority,
                   mode: SharingMode) -> float:
        if mode is SharingMode.TIME_SLICE:
            return self.time_slice
        if mode is SharingMode.MPS:
            if victim_priority > own_priority:
                return self.mps_on_higher
            return self.mps_on_lower
        return 0.0


#: Interference of a pipeline-training kernel: under MPS it dominates the
#: SMs a side task needs (halving side throughput); under time-slicing the
#: two contexts split the device.
TRAINING_INTERFERENCE = Interference(mps_on_higher=0.0, mps_on_lower=1.0,
                                     time_slice=1.0)

_kernel_ids = itertools.count()


class Kernel(SimEvent):
    """One launched unit of GPU work, and the event of its completion."""

    __slots__ = ("kid", "proc", "work_s", "sm_demand", "priority",
                 "interference", "remaining", "rate", "last_update",
                 "version")

    def __init__(
        self,
        proc: "GPUProcess",
        work_s: float,
        sm_demand: float,
        priority: Priority,
        interference: Interference,
        name: str = "",
    ):
        if not work_s >= 0:  # also rejects NaN, which compares false
            raise ValueError(f"kernel work must be >= 0, got {work_s}")
        if not 0.0 < sm_demand <= 1.0:
            raise ValueError(f"sm_demand must be in (0, 1], got {sm_demand}")
        # SimEvent's fields, set here rather than through its __init__:
        # a kernel is built per launch, and the call cost a sixth of
        # this constructor
        self.engine = proc.engine
        self.callbacks = []
        self._state = PENDING
        self._value = None
        self._exception = None
        self.kid = kid = next(_kernel_ids)
        self.name = name or f"kernel-{kid}"
        self.proc = proc
        self.work_s = work_s
        self.sm_demand = sm_demand
        self.priority = priority
        self.interference = interference
        # The run state, which the device sets at each launch: seconds
        # of work left at ``last_update`` (``remaining``), the ``rate``
        # since then, and the version of the completion timer, which
        # counts on across runs (-1 until the first launch).
        self.version = -1

    def relaunch(self, work_s: float) -> "Kernel":
        """Launch this completed kernel again with ``work_s`` seconds of
        work; returns it, as its completion event.

        The checks of a fresh launch apply (non-negative work, a live
        process), and :meth:`repro.gpu.device.SimGPU.launch` refuses a
        kernel that is running, triggered but not yet processed, or
        failed. A refused relaunch leaves the kernel as it was.
        """
        if not work_s >= 0:  # also rejects NaN, which compares false
            raise ValueError(f"kernel work must be >= 0, got {work_s}")
        proc = self.proc
        if not proc.alive:
            proc._check_alive()
        last_work_s, self.work_s = self.work_s, work_s
        try:
            return proc.device.launch(self)
        except SimulationError:
            self.work_s = last_work_s
            raise

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Kernel {self.name} proc={self.proc.name} work={self.work_s:.4g}s "
            f"sm={self.sm_demand:.2f} prio={self.priority.name}>"
        )
