"""The simulated GPU device.

A :class:`SimGPU` executes kernels in virtual time with a rate model:
every kernel runs at ``1 / slowdown`` speed, where the slowdown is one plus
the sum of interference imposed by concurrently-running kernels of *other*
processes (see :mod:`repro.gpu.kernel`). Whenever the active-kernel set
changes, remaining work is settled at the old rates and completions are
rescheduled at the new rates — the standard processor-sharing construction
for discrete-event simulators. A kernel that lands on an idle device
skips that pass: alone, it has nothing to settle and a slowdown of
exactly 1, so :meth:`SimGPU.launch` schedules its completion directly
with the same arithmetic on the same values. A completion timer is a
bare heap entry (:meth:`~repro.sim.engine.Engine.call_later`) carrying
its run and the run's version; a rate change supersedes it by bumping
the version. A completion that leaves the device idle fires the
kernel's done event in place (:meth:`~repro.sim.engine.Engine.fire`):
its waiter runs inside the timer's entry, exactly where the heap would
have run it next.

The device also keeps:

* a **memory ledger** (per-process allocations against device capacity),
* an **SM-occupancy trace** and a **memory trace**, from which Figures 1
  and 8 of the paper are regenerated.
"""

from __future__ import annotations

import typing

from repro.errors import GpuOutOfMemoryError, SimulationError
from repro.gpu.kernel import Kernel, Priority
from repro.gpu.sharing import SharingMode
from repro.sim.events import SimEvent

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.gpu.process import GPUProcess
    from repro.sim.engine import Engine


class _KernelRun:
    """Book-keeping for one in-flight kernel."""

    __slots__ = ("kernel", "remaining", "rate", "last_update", "version")

    def __init__(self, kernel: Kernel, remaining: float, now: float):
        self.kernel = kernel
        self.remaining = remaining
        self.rate = 1.0
        self.last_update = now
        self.version = 0


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
        self._runs: dict[int, _KernelRun] = {}
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
        #: timer's argument is its run and the run's version
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
    def launch(self, kernel: Kernel) -> SimEvent:
        """Start executing ``kernel``; returns its completion event."""
        if kernel.done is not None:
            raise SimulationError(f"kernel {kernel.name} launched twice")
        runs = self._runs
        if runs and self.sharing is SharingMode.EXCLUSIVE:
            owners = {run.kernel.proc.pid for run in runs.values()}
            if owners != {kernel.proc.pid}:
                raise SimulationError(
                    f"{self.name} is in EXCLUSIVE mode; "
                    f"{kernel.proc.name} cannot co-run kernels"
                )
        engine = self.engine
        done = kernel.done = SimEvent(engine)
        now = engine.now
        run = _KernelRun(kernel, kernel.work_s / self.speed_factor, now)
        alone = not runs
        runs[kernel.kid] = run
        if kernel.work_s == 0:
            self._complete(run)
        elif alone:
            # _recompute with this one run: settling subtracts
            # (now - now) * 1.0, the occupancy sums add to 0.0, and the
            # slowdown is 1.0, so the completion lands remaining / 1.0
            # from now under version 1.
            if kernel.priority >= Priority.TRAINING:
                self._record_point(now, kernel.sm_demand, 0.0)
            else:
                self._record_point(now, 0.0, kernel.sm_demand)
            run.version = 1
            engine.call_later(run.remaining, self._timer_callback, (run, 1))
        else:
            self._recompute()
        return done

    def cancel_kernels_of(self, proc: "GPUProcess") -> int:
        """Drop all in-flight kernels of ``proc`` (CUDA context teardown).

        Their completion events fail so waiters observe the termination.
        Returns the number of kernels cancelled.
        """
        from repro.errors import ProcessKilledError

        doomed = [run for run in self._runs.values()
                  if run.kernel.proc.pid == proc.pid]
        for run in doomed:
            del self._runs[run.kernel.kid]
            if run.kernel.done is not None and run.kernel.done.pending:
                run.kernel.done.fail(
                    ProcessKilledError(f"{run.kernel.name} cancelled with {proc.name}")
                )
        if doomed:
            self._recompute()
        return len(doomed)

    def active_kernels(self) -> list[Kernel]:
        return [run.kernel for run in self._runs.values()]

    def has_kernels_of(self, proc: "GPUProcess") -> bool:
        return any(run.kernel.proc.pid == proc.pid for run in self._runs.values())

    # ------------------------------------------------------------------
    # rate model
    # ------------------------------------------------------------------
    def _slowdown(self, kernel: Kernel) -> float:
        slowdown = 1.0
        for run in self._runs.values():
            other = run.kernel
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
        for run in runs.values():
            run.remaining -= (now - run.last_update) * run.rate
            if run.remaining < 0:
                run.remaining = 0.0
            run.last_update = now
            kernel = run.kernel
            if kernel.priority >= Priority.TRAINING:
                training += kernel.sm_demand
            else:
                side += kernel.sm_demand
        self._record_point(now, training, side)
        for run in runs.values():
            run.rate = 1.0 / self._slowdown(run.kernel)
            run.version += 1
            self._schedule_completion(run)

    def _schedule_completion(self, run: _KernelRun) -> None:
        self.engine.call_later(run.remaining / run.rate, self._timer_callback,
                               (run, run.version))

    def _on_timer(self, timer: tuple[_KernelRun, int]) -> None:
        run, version = timer
        runs = self._runs
        kernel = run.kernel
        if run.version != version or kernel.kid not in runs:
            return  # stale timer from before a recompute
        del runs[kernel.kid]
        self._record_occupancy(self.engine.now)
        if runs:
            kernel.done.succeed(kernel)
            self._recompute()
        else:
            # The timer's entry ends with this callback: fire at its tail.
            self.engine.fire(kernel.done, kernel)

    def _complete(self, run: _KernelRun) -> None:
        self._runs.pop(run.kernel.kid, None)
        self._record_occupancy(self.engine.now)
        run.kernel.done.succeed(run.kernel)
        if self._runs:
            self._recompute()

    # ------------------------------------------------------------------
    # traces
    # ------------------------------------------------------------------
    def _record_occupancy(self, now: float) -> None:
        training = 0.0
        side = 0.0
        if self.record_occupancy:
            for run in self._runs.values():
                kernel = run.kernel
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
