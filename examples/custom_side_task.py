"""Implementing your own side task against the FreeRide interfaces.

Mirrors the paper's Figure 6: port a GPU workload by overriding the four
iterative-interface hooks — ``create_side_task`` (host context),
``init_side_task`` (GPU context), ``compute_step`` (the work of one
step), ``stop_side_task`` (cleanup). FreeRide runs each step from the
task's phases, ``host_phase``, ``launch_step`` (which calls
``compute_step``) and ``after_step``; this task keeps the stock ones,
which realize its profiled step. FreeRide handles profiling, placement,
pausing and resuming; the task never sees a bubble.

The example task estimates pi by Monte Carlo, one batch of samples per
step — small, repetitive steps, exactly the structure the iterative
interface wants. The same compute core is then run through the
*imperative* interface via the adapter, as the paper does for all its
workloads.

Run with::

    python examples/custom_side_task.py
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro import calibration
from repro.core.interfaces import IterativeSideTask
from repro.core.middleware import FreeRide
from repro.pipeline.config import TrainConfig, model_config
from repro.workloads.adapters import ImperativeAdapter


#: How the task behaves on the simulated GPU: 5 ms steps, 1.5 GB, modest
#: SM demand. A real deployment gets these from the automated profiler.
MONTE_CARLO_PROFILE = calibration.SideTaskProfile(
    name="monte-carlo-pi",
    step_time_s=0.005,
    memory_gb=1.5,
    units_per_step=1.0,
    gpu_duty=0.9,
    sm_demand=0.5,
    speed_server_ii=0.4,
    speed_cpu=0.05,
    mps_interference=0.2,
    naive_interference=0.6,
)


class MonteCarloPiTask(IterativeSideTask):
    """Estimate pi; every step adds 20k samples to the estimate."""

    def __init__(self, samples_per_step: int = 20_000, seed: int = 0):
        super().__init__(MONTE_CARLO_PROFILE)
        self.samples_per_step = samples_per_step
        self.seed = seed
        self.inside = 0
        self.total = 0
        self._rng: np.random.Generator | None = None

    def create_side_task(self) -> None:
        # CREATED: host-side context only.
        self._rng = np.random.default_rng(self.seed)
        self.host_loaded = True

    def compute_step(self) -> None:
        points = self._rng.random((self.samples_per_step, 2))
        self.inside += int((points ** 2).sum(axis=1).__le__(1.0).sum())
        self.total += self.samples_per_step

    @property
    def pi_estimate(self) -> float:
        return 4.0 * self.inside / self.total if self.total else float("nan")


def main() -> None:
    config = TrainConfig(model=model_config("3.6B"), epochs=6, op_jitter=0.01)

    for interface, factory in (
        ("iterative", lambda: MonteCarloPiTask()),
        ("imperative", lambda: ImperativeAdapter(MonteCarloPiTask())),
    ):
        freeride = FreeRide(config)
        spec = freeride.submit(factory, interface=interface, name=f"pi-{interface}")
        assert spec is not None, "placement failed"
        result = freeride.run()
        report = result.task(f"pi-{interface}")
        task = spec.workload
        inner = task.inner if isinstance(task, ImperativeAdapter) else task
        error = abs(inner.pi_estimate - math.pi)
        print(f"{interface:10s}: {report.steps_done:5d} steps on stage "
              f"{report.stage}, pi = {inner.pi_estimate:.5f} "
              f"(error {error:.5f}), final state {report.final_state.value}")
        assert error < 0.05, "Monte Carlo estimate should be close by now"


if __name__ == "__main__":
    main()
