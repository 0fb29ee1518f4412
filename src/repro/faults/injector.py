"""Arms a :class:`FaultPlan` against a live side-task pool.

The injector does three things, all with fixed event times taken from
the plan so no other component's random stream is disturbed:

* schedules each :class:`WorkerCrash` as a simulation timer that calls
  ``manager.crash_worker``;
* installs the plan's RPC drop windows on the manager's cast channel;
* hangs itself off every worker so runtimes can consult
  :meth:`step_fails` and :meth:`slowdown_factor` mid-step.

Step failures use a pure hash of ``(seed, task, attempt)`` rather than a
shared stream: whether *other* tasks' steps failed can never change
whether this one does, which keeps pool-vs-serial sweeps byte-identical.
"""

from __future__ import annotations

import random
import typing

from repro.faults.plan import FaultPlan
from repro.sim.rng import _derive_seed

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.middleware import Cluster


class FaultInjector:
    """Schedules a plan's failures and answers runtimes' fault queries."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        #: per-task count of step attempts, the hash input for failures
        self._attempts: dict[str, int] = {}
        #: (time, stage) of every crash actually injected
        self.injected_crashes: list[tuple[float, int]] = []
        #: the armed pool's engine; observability events go through it
        self._sim = None

    def arm(self, pool: "Cluster") -> None:
        """Install this plan on ``pool`` (call once, before running).

        Runtimes copy their worker's injector when placed, so the tasks
        already placed get it here too.
        """
        sim = pool.sim
        self._sim = sim
        for worker in pool.workers:
            worker.injector = self
            for runtime in worker.all_tasks:
                runtime.injector = self
        if self.plan.rpc_drops:
            pool.manager.rpc.install_faults(
                self.plan.rpc_drops, self.plan.rpc_retry_delay_s
            )
        for crash in self.plan.crashes:
            if not 0 <= crash.stage < len(pool.workers):
                raise ValueError(
                    f"crash targets stage {crash.stage} but the pool has "
                    f"{len(pool.workers)} workers"
                )
            sim.call_later(max(0.0, crash.at_s - sim.now),
                           lambda c: self._crash(pool, c), crash)

    def _crash(self, pool: "Cluster", crash) -> None:
        sim = pool.sim
        self.injected_crashes.append((sim.now, crash.stage))
        sim.telemetry.counter("faults.crashes").add()
        if sim.trace.enabled:
            sim.trace.instant(
                "crash", sim.now, cat="fault",
                track=("faults", f"stage{crash.stage}"),
                args={"stage": crash.stage,
                      "restart_after_s": crash.restart_after_s},
            )
        pool.manager.crash_worker(
            crash.stage, restart_after_s=crash.restart_after_s
        )

    # ------------------------------------------------------------------
    # queries from runtimes
    # ------------------------------------------------------------------
    def step_fails(self, task_name: str) -> bool:
        """Decide (deterministically) whether this task's next step fails.

        Each call advances the task's attempt counter, so a failed step
        that re-runs gets a fresh draw.
        """
        rate = self.plan.step_failure_rate
        if rate <= 0.0:
            return False
        attempt = self._attempts.get(task_name, 0)
        self._attempts[task_name] = attempt + 1
        draw = random.Random(
            _derive_seed(
                self.plan.step_failure_seed, f"step:{task_name}:{attempt}"
            )
        ).random()
        failed = draw < rate
        if failed and self._sim is not None:
            self._sim.telemetry.counter("faults.step_failures").add()
            if self._sim.trace.enabled:
                self._sim.trace.instant(
                    "step_failure", self._sim.now, cat="fault",
                    track=("faults", "steps"),
                    args={"task": task_name, "attempt": attempt},
                )
        return failed

    def slowdown_factor(self, stage: int, now: float) -> float:
        """The straggler multiplier in effect on ``stage`` at ``now``."""
        factor = 1.0
        for window in self.plan.slowdowns:
            if window.stage == stage and window.start_s <= now < window.end_s:
                factor = max(factor, window.factor)
        return factor
