"""Simulated processes that own GPU memory and launch kernels.

A :class:`GPUProcess` models one OS process with a CUDA context:

* it allocates device memory against an optional **MPS memory limit**
  (exceeding the limit raises an OOM error for this process only);
* it launches **asynchronous kernels** — the host side can be stopped with
  ``SIGTSTP`` while kernels already on the device keep running, which is
  exactly why the paper's imperative interface costs more than the
  iterative one (section 5);
* ``SIGKILL`` tears the context down: in-flight kernels are cancelled and
  all device memory is released.
"""

from __future__ import annotations

import itertools
import typing

from repro.errors import GpuOutOfMemoryError, ProcessKilledError
from repro.gpu.kernel import Interference, Kernel, Priority
from repro.sim.signals import Signal, SignalDispatcher

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.gpu.device import SimGPU
    from repro.sim.engine import Engine
    from repro.sim.events import SimEvent
    from repro.sim.process import Process

_pids = itertools.count(1000)


class GPUProcess:
    """One simulated process bound to a device."""

    def __init__(
        self,
        engine: "Engine",
        device: "SimGPU",
        name: str,
        priority: Priority = Priority.SIDE,
        interference: Interference | None = None,
        memory_limit_gb: float | None = None,
    ):
        self.engine = engine
        self.device = device
        self.name = name
        self.pid = next(_pids)
        self.priority = priority
        self.interference = interference or Interference()
        self.memory_limit_gb = memory_limit_gb
        self.alive = True
        self.exit_reason: str | None = None
        self.stopped = False
        self._resume_event: "SimEvent" | None = None
        self.signals = SignalDispatcher(on_kill=self.kill)
        self.signals.register(Signal.SIGTSTP, lambda _s: self._stop())
        self.signals.register(Signal.SIGCONT, lambda _s: self._cont())
        #: simulation processes to interrupt when this OS process dies
        self._sim_procs: list["Process"] = []
        #: (time, held_gb) — per-process memory trace (Figure 8b)
        self.memory_trace: list[tuple[float, float]] = [(engine.now, 0.0)]

    # ------------------------------------------------------------------
    # memory
    # ------------------------------------------------------------------
    @property
    def memory_gb(self) -> float:
        return self.device.memory_held_by(self)

    def allocate(self, gb: float) -> None:
        """Allocate device memory, honouring the MPS limit.

        Mirrors paper section 4.5: "The side task process triggers an
        out-of-memory (OOM) error when its memory consumption exceeds the
        limit, but other processes remain unaffected."
        """
        self._check_alive()
        limit = self.memory_limit_gb
        if limit is not None and self.memory_gb + gb > limit + 1e-9:
            raise GpuOutOfMemoryError(
                f"{self.name}: MPS memory limit exceeded "
                f"({self.memory_gb:.2f} + {gb:.2f} > {limit:.2f} GB)",
                requested_gb=gb,
                limit_gb=limit,
            )
        self.device.allocate(self, gb)
        self.memory_trace.append((self.engine.now, self.memory_gb))

    def free(self, gb: float | None = None) -> None:
        self.device.free(self, gb)
        self.memory_trace.append((self.engine.now, self.memory_gb))

    # ------------------------------------------------------------------
    # kernels
    # ------------------------------------------------------------------
    def launch_kernel(
        self, work_s: float, sm_demand: float = 0.5, name: str = ""
    ) -> Kernel:
        """Launch an asynchronous kernel; returns it, as its completion
        event (yielding it resumes with the kernel once it finishes)."""
        if not self.alive:
            self._check_alive()
        kernel = Kernel(self, work_s, sm_demand, self.priority,
                        self.interference, name or f"{self.name}:k")
        return self.device.launch(kernel)

    # ------------------------------------------------------------------
    # lifecycle and signals
    # ------------------------------------------------------------------
    def attach(self, sim_proc: "Process") -> "Process":
        """Register a simulation coroutine as a thread of this process."""
        self._sim_procs.append(sim_proc)
        return sim_proc

    def send_signal(self, signal: Signal) -> None:
        if not self.alive:
            return
        self.signals.deliver(signal, self.engine.now)

    def _stop(self) -> None:
        self.stopped = True

    def _cont(self) -> None:
        if not self.stopped:
            return
        self.stopped = False
        if self._resume_event is not None and self._resume_event.pending:
            self._resume_event.succeed()
        self._resume_event = None

    def wait_if_stopped(self):
        """Generator helper: block (in virtual time) while SIGTSTP'd.

        Yield from this between host-side operations; it models the kernel
        scheduler withholding CPU from a stopped process.
        """
        while self.stopped and self.alive:
            if self._resume_event is None or self._resume_event.processed:
                self._resume_event = self.engine.event(name=f"{self.name}:resume")
            yield self._resume_event
        if not self.alive:
            raise ProcessKilledError(f"{self.name} was killed while stopped")

    def kill(self, reason: str = "SIGKILL") -> None:
        """Terminate: cancel kernels, free memory, interrupt threads."""
        if not self.alive:
            return
        self.alive = False
        self.exit_reason = reason
        self.device.cancel_kernels_of(self)
        if self.memory_gb > 0:
            self.device.free(self, None)
        self.memory_trace.append((self.engine.now, 0.0))
        for sim_proc in self._sim_procs:
            if sim_proc.alive:
                sim_proc.interrupt(ProcessKilledError(f"{self.name}: {reason}"))

    def _check_alive(self) -> None:
        if not self.alive:
            raise ProcessKilledError(f"{self.name} is dead ({self.exit_reason})")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else f"dead({self.exit_reason})"
        return f"<GPUProcess {self.name} pid={self.pid} {state}>"
