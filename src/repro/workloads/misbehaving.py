"""Misbehaving side tasks for the resource-limit demonstrations (Fig. 8).

* :class:`NonPausingTask` — its *measured* profile promises short steps,
  but at run time each step launches a kernel far longer than any bubble,
  so a pause initiated at a bubble's end cannot take effect and the
  framework-enforced mechanism must SIGKILL it after the grace period
  (Figure 8a).
* :class:`MemoryLeakTask` — allocates more GPU memory every step until it
  crosses its MPS limit and is OOM-killed, leaving the training process
  untouched (Figure 8b).
"""

from __future__ import annotations

import dataclasses

from repro import calibration
from repro.core.interfaces import IterativeSideTask, SideTaskContext


class NonPausingTask(IterativeSideTask):
    """Claims 30 ms steps, actually runs kernels of ``actual_kernel_s``."""

    def __init__(self, actual_kernel_s: float = 5.0):
        # The profile the automated profiler will measure is forged by
        # keeping the first probe steps short: the task behaves only after
        # `honest_steps` steps — a deliberately adversarial workload.
        super().__init__(calibration.RESNET18, name="non-pausing")
        self.actual_kernel_s = actual_kernel_s
        self.honest_steps = 16

    def compute_step(self) -> None:
        pass

    def host_phase(self, ctx: SideTaskContext) -> float | None:
        if self.steps_done < self.honest_steps:
            return super().host_phase(ctx)
        return None  # the runaway kernel launches at once

    def launch_step(self, ctx: SideTaskContext):
        if self.steps_done < self.honest_steps:
            return super().launch_step(ctx)
        # Misbehave: one giant kernel that ignores every bubble boundary.
        return ctx.proc.launch_kernel(self.actual_kernel_s,
                                      self.perf.sm_demand,
                                      f"{self.name}:runaway")


class MemoryLeakTask(IterativeSideTask):
    """Leaks ``leak_gb_per_step`` of GPU memory every step."""

    def __init__(self, leak_gb_per_step: float = 1.0):
        profile = dataclasses.replace(
            calibration.RESNET18, memory_gb=2.0, step_time_s=0.03
        )
        super().__init__(profile, name="memory-leak")
        self.leak_gb_per_step = leak_gb_per_step

    def compute_step(self) -> None:
        pass

    def after_step(self, ctx: SideTaskContext) -> None:
        # The leak: allocate and never free. Crossing the MPS limit raises
        # an OOM that kills this process only.
        ctx.proc.allocate(self.leak_gb_per_step)
