"""The simulated GPU device.

A :class:`SimGPU` executes kernels in virtual time with a rate model:
every kernel runs at ``1 / slowdown`` speed, where the slowdown is one plus
the sum of interference imposed by concurrently-running kernels of *other*
processes (see :mod:`repro.gpu.kernel`). Whenever the active-kernel set
changes, remaining work is settled at the old rates and completions are
rescheduled at the new rates — the standard processor-sharing construction
for discrete-event simulators. A kernel is its own completion event and
carries its run state (remaining work, rate, last settle instant, timer
version); every launch sets that state, and a completed kernel may be
launched again (:meth:`~repro.gpu.kernel.Kernel.relaunch`), its timer
version counting on from its last run. A kernel that lands on an idle
device skips that pass: alone, it has nothing to settle and a slowdown
of exactly 1, so
:meth:`SimGPU.launch` schedules its completion directly with the same
arithmetic on the same values. A completion timer is a bare heap entry
(:meth:`~repro.sim.engine.Engine.call_later`) carrying its kernel and
the kernel's version; a rate change supersedes it by bumping the
version. A completion that leaves the device idle fires the kernel in
place (:meth:`~repro.sim.engine.Engine.fire`): its waiter runs inside
the timer's entry, exactly where the heap would have run it next. On
that lone-kernel path, when no occupancy trace is recorded, the launch
and the completion update busy time inline.

The device also keeps:

* a **memory ledger** (per-process allocations against device capacity),
* an **SM-occupancy trace** and a **memory trace**, from which Figures 1
  and 8 of the paper are regenerated.
"""

from __future__ import annotations

import typing

from repro.errors import GpuOutOfMemoryError, ProcessKilledError, SimulationError
from repro.gpu.kernel import Kernel, Priority
from repro.gpu.sharing import SharingMode
from repro.sim.events import PENDING, PROCESSED

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.gpu.process import GPUProcess
    from repro.sim.engine import Engine


class SimGPU:
    """One simulated GPU: SM sharing, memory ledger, traces."""

    def __init__(
        self,
        engine: "Engine",
        name: str,
        memory_gb: float,
        sharing: SharingMode = SharingMode.MPS,
        speed_factor: float = 1.0,
        record_occupancy: bool = False,
    ):
        if memory_gb <= 0:
            raise ValueError(f"GPU memory must be positive, got {memory_gb}")
        if speed_factor <= 0:
            raise ValueError(f"speed factor must be positive, got {speed_factor}")
        self.engine = engine
        self.name = name
        self.memory_gb = memory_gb
        self.sharing = sharing
        self.speed_factor = speed_factor
        #: the kernels in flight, by kernel id, in launch order
        self._runs: dict[int, Kernel] = {}
        self._allocations: dict[int, float] = {}  # pid -> GB
        #: record the SM-occupancy trace? Off by default: only Figures 1
        #: and 8 read it, and on long serving runs the per-recompute
        #: appends dominate the device's bookkeeping cost.
        self.record_occupancy = record_occupancy
        #: (time, total_occupancy, training_occupancy, side_occupancy)
        self.occupancy_trace: list[tuple[float, float, float, float]] = []
        #: (time, used_gb)
        self.memory_trace: list[tuple[float, float]] = []
        #: cumulative busy seconds (any kernel active), for utilization stats
        self.busy_time: float = 0.0
        self._busy_since: float | None = None
        #: the one callback of every completion timer, bound once; the
        #: timer's argument is its kernel and the kernel's version
        self._timer_callback = self._on_timer

    # ------------------------------------------------------------------
    # memory ledger
    # ------------------------------------------------------------------
    @property
    def used_gb(self) -> float:
        return sum(self._allocations.values())

    @property
    def available_gb(self) -> float:
        return self.memory_gb - self.used_gb

    def allocate(self, proc: "GPUProcess", gb: float) -> None:
        """Allocate ``gb`` of device memory to ``proc``.

        Raises :class:`GpuOutOfMemoryError` when the device is full. The
        caller (the process) layers its own MPS limit check on top.
        """
        if gb < 0:
            raise ValueError(f"cannot allocate negative memory: {gb}")
        if self.used_gb + gb > self.memory_gb + 1e-9:
            raise GpuOutOfMemoryError(
                f"{self.name}: device out of memory "
                f"({self.used_gb:.2f} + {gb:.2f} > {self.memory_gb:.2f} GB)",
                requested_gb=gb,
                limit_gb=self.memory_gb,
            )
        self._allocations[proc.pid] = self._allocations.get(proc.pid, 0.0) + gb
        self.memory_trace.append((self.engine.now, self.used_gb))

    def free(self, proc: "GPUProcess", gb: float | None = None) -> None:
        """Free ``gb`` (or all) of ``proc``'s memory on this device."""
        held = self._allocations.get(proc.pid, 0.0)
        if gb is None:
            gb = held
        if gb > held + 1e-9:
            raise SimulationError(
                f"{proc.name} freeing {gb:.2f} GB but holds {held:.2f} GB"
            )
        remaining = held - gb
        if remaining <= 1e-12:
            self._allocations.pop(proc.pid, None)
        else:
            self._allocations[proc.pid] = remaining
        self.memory_trace.append((self.engine.now, self.used_gb))

    def memory_held_by(self, proc: "GPUProcess") -> float:
        return self._allocations.get(proc.pid, 0.0)

    # ------------------------------------------------------------------
    # kernel execution
    # ------------------------------------------------------------------
    def launch(self, kernel: Kernel) -> Kernel:
        """Start executing ``kernel``; returns it, as its completion event.

        ``kernel`` is fresh, or completed and processed
        (:meth:`Kernel.relaunch`); a running, triggered or failed kernel
        is refused. Each launch sets the whole run state and continues
        the kernel's timer version, so no completion timer of an
        earlier run matches a later one.
        """
        if kernel._state == PENDING:
            if kernel.version >= 0:
                raise SimulationError(
                    f"kernel {kernel.name} launched while running")
        elif kernel._exception is not None:
            raise SimulationError(
                f"kernel {kernel.name} failed; it is not launched again")
        elif kernel._state != PROCESSED:
            raise SimulationError(
                f"kernel {kernel.name} launched before its completion "
                "was processed")
        runs = self._runs
        if runs and self.sharing is SharingMode.EXCLUSIVE:
            owners = {other.proc.pid for other in runs.values()}
            if owners != {kernel.proc.pid}:
                raise SimulationError(
                    f"{self.name} is in EXCLUSIVE mode; "
                    f"{kernel.proc.name} cannot co-run kernels"
                )
        now = self.engine.now
        kernel._state = PENDING
        kernel.remaining = kernel.work_s / self.speed_factor
        kernel.rate = 1.0
        kernel.last_update = now
        kernel.version = version = kernel.version + 1
        alone = not runs
        runs[kernel.kid] = kernel
        if kernel.work_s == 0:
            self._complete(kernel)
        elif alone:
            # _recompute with this one kernel: settling subtracts
            # (now - now) * 1.0, the occupancy sums add to 0.0, and the
            # slowdown is 1.0, so the completion lands remaining / 1.0
            # from now under the next version.
            if not self.record_occupancy:
                self._busy_since = now  # what _record_point would do
            elif kernel.priority >= Priority.TRAINING:
                self._record_point(now, kernel.sm_demand, 0.0)
            else:
                self._record_point(now, 0.0, kernel.sm_demand)
            kernel.version = version = version + 1
            self.engine.call_later(kernel.remaining, self._timer_callback,
                                   (kernel, version))
        else:
            self._recompute()
        return kernel

    def cancel_kernels_of(self, proc: "GPUProcess") -> int:
        """Drop all in-flight kernels of ``proc`` (CUDA context teardown).

        They fail with :class:`~repro.errors.ProcessKilledError`, so
        waiters observe the termination. Returns the number of kernels
        cancelled.
        """
        doomed = [kernel for kernel in self._runs.values()
                  if kernel.proc.pid == proc.pid]
        for kernel in doomed:
            del self._runs[kernel.kid]
            if kernel.pending:
                kernel.fail(ProcessKilledError(
                    f"{kernel.name} cancelled with {proc.name}"))
        if doomed:
            self._recompute()
        return len(doomed)

    def active_kernels(self) -> list[Kernel]:
        return list(self._runs.values())

    def has_kernels_of(self, proc: "GPUProcess") -> bool:
        return any(kernel.proc.pid == proc.pid
                   for kernel in self._runs.values())

    # ------------------------------------------------------------------
    # rate model
    # ------------------------------------------------------------------
    def _slowdown(self, kernel: Kernel) -> float:
        slowdown = 1.0
        for other in self._runs.values():
            if other.proc.pid == kernel.proc.pid:
                continue
            slowdown += other.interference.imposed_on(
                kernel.priority, other.priority, self.sharing
            )
        return slowdown

    def _recompute(self) -> None:
        """Settle progress at old rates, assign new rates, reschedule."""
        now = self.engine.now
        runs = self._runs
        training = 0.0
        side = 0.0
        for kernel in runs.values():
            kernel.remaining -= (now - kernel.last_update) * kernel.rate
            if kernel.remaining < 0:
                kernel.remaining = 0.0
            kernel.last_update = now
            if kernel.priority >= Priority.TRAINING:
                training += kernel.sm_demand
            else:
                side += kernel.sm_demand
        self._record_point(now, training, side)
        call_later = self.engine.call_later
        for kernel in runs.values():
            kernel.rate = rate = 1.0 / self._slowdown(kernel)
            kernel.version = version = kernel.version + 1
            call_later(kernel.remaining / rate, self._timer_callback,
                       (kernel, version))

    def _on_timer(self, timer: tuple[Kernel, int]) -> None:
        kernel, version = timer
        runs = self._runs
        if kernel.version != version or kernel.kid not in runs:
            return  # stale timer from before a recompute
        del runs[kernel.kid]
        now = self.engine.now
        if runs:
            self._record_occupancy(now)
            kernel.succeed(kernel)
            self._recompute()
            return
        if self.record_occupancy:
            self._record_point(now, 0.0, 0.0)
        else:
            # what _record_point does on an idle device
            self.busy_time += now - self._busy_since
            self._busy_since = None
        # The timer's entry ends with this callback: fire at its tail.
        self.engine.fire(kernel, kernel)

    def _complete(self, kernel: Kernel) -> None:
        self._runs.pop(kernel.kid, None)
        self._record_occupancy(self.engine.now)
        kernel.succeed(kernel)
        if self._runs:
            self._recompute()

    # ------------------------------------------------------------------
    # traces
    # ------------------------------------------------------------------
    def _record_occupancy(self, now: float) -> None:
        training = 0.0
        side = 0.0
        if self.record_occupancy:
            for kernel in self._runs.values():
                if kernel.priority >= Priority.TRAINING:
                    training += kernel.sm_demand
                else:
                    side += kernel.sm_demand
        self._record_point(now, training, side)

    def _record_point(self, now: float, training: float, side: float) -> None:
        if self.record_occupancy:
            total = min(1.0, training + side)
            point = (now, total, min(1.0, training), min(1.0, side))
            trace = self.occupancy_trace
            if trace and trace[-1][0] == now:
                trace[-1] = point
            else:
                trace.append(point)
        # busy-time accounting runs regardless of trace recording
        if self._runs and self._busy_since is None:
            self._busy_since = now
        elif not self._runs and self._busy_since is not None:
            self.busy_time += now - self._busy_since
            self._busy_since = None

    def utilization(self, until: float | None = None) -> float:
        """Fraction of [0, until] with at least one kernel resident."""
        horizon = self.engine.now if until is None else until
        busy = self.busy_time
        if self._busy_since is not None:
            busy += horizon - self._busy_since
        return busy / horizon if horizon > 0 else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SimGPU {self.name} {self.used_gb:.1f}/{self.memory_gb:.0f} GB "
            f"kernels={len(self._runs)} mode={self.sharing.value}>"
        )
