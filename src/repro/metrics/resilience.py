"""Degradation metrics: what failure actually cost a run.

:func:`resilience_metrics` folds three ledgers into one digest:

* **worker crash logs** — crash/restart counts, mean recovery time, and
  worker availability (fraction of worker-seconds the pool was up);
* **runtime recovery accounting** — preemptions, restores, checkpoints
  and their overhead, wasted work (steps rolled back plus re-run step
  time), injected step failures;
* **the serving frontend's accumulator** — retries spent, and requests
  that ended in an explicit "failed"/"exhausted" outcome.

Goodput-under-failure is taken from the ordinary serving fold
(:class:`~repro.metrics.latency.ServingAccumulator`): the resilience table
reports the same goodput number a healthy run would, so the degradation
is read directly off the fault axis.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.metrics.latency import ServingAccumulator

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.middleware import Cluster


@dataclasses.dataclass
class ResilienceMetrics:
    """Failure/recovery accounting for one run."""

    crashes: int
    restarts: int
    #: fraction of worker-seconds the pool was up over the window
    availability: float
    #: mean crash-to-restart time over restarted workers
    mean_recovery_s: float
    preemptions: int
    restores: int
    checkpoints: int
    checkpoint_overhead_s: float
    restore_overhead_s: float
    #: side-task steps rolled back to a snapshot (or to scratch)
    wasted_steps: int
    #: virtual seconds of side-task work lost (rollbacks + failed steps)
    wasted_s: float
    step_failures: int
    #: extra dispatch attempts spent by the serving retry layer
    retries: int
    #: requests with an explicit "failed" terminal outcome
    failed_requests: int
    #: requests with an "exhausted" (retries ran out) terminal outcome
    exhausted_requests: int
    #: SLO-met completions per second, under the injected faults
    goodput_under_failure_rps: float

    def summary(self) -> dict:
        """JSON-safe digest (the determinism tests serialize these)."""
        return dataclasses.asdict(self)


def resilience_metrics(
    pool: "Cluster",
    requests: "ServingAccumulator | None" = None,
    duration_s: float = 0.0,
    goodput_rps: float = 0.0,
) -> ResilienceMetrics:
    """Fold a finished run's ledgers into :class:`ResilienceMetrics`.

    ``requests`` is the serving frontend's accumulator, which tallied
    each request's retries and failure outcome as it settled; a run
    that served no traffic passes none.
    """
    crashes = restarts = 0
    downtime_s = 0.0
    recovery: list[float] = []
    for worker in pool.workers:
        for crashed_at, restarted_at in worker.crash_log:
            crashes += 1
            if restarted_at is not None:
                restarts += 1
                recovery.append(restarted_at - crashed_at)
            if duration_s > 0:
                up_again = restarted_at if restarted_at is not None else duration_s
                downtime_s += max(0.0, min(up_again, duration_s) - crashed_at)
    worker_seconds = len(pool.workers) * duration_s
    availability = (
        1.0 - downtime_s / worker_seconds if worker_seconds > 0 else 1.0
    )
    mean_recovery_s = sum(recovery) / len(recovery) if recovery else 0.0

    # A restored task appears in two workers' ledgers, and a parked one
    # only in manager.preempted — walk both, dedupe by identity.
    seen: set[int] = set()
    preemptions = restores = checkpoints = step_failures = wasted_steps = 0
    checkpoint_overhead_s = restore_overhead_s = wasted_s = 0.0
    runtimes = [
        task for worker in pool.workers for task in worker.all_tasks
    ] + list(pool.manager.preempted)
    for runtime in runtimes:
        if id(runtime) in seen:
            continue
        seen.add(id(runtime))
        preemptions += runtime.preemptions
        restores += runtime.restores
        checkpoints += runtime.checkpoints
        checkpoint_overhead_s += runtime.checkpoint_s
        restore_overhead_s += runtime.restore_s
        wasted_steps += runtime.wasted_steps
        wasted_s += runtime.wasted_s
        step_failures += runtime.step_failures

    if requests is None:
        requests = ServingAccumulator()
    return ResilienceMetrics(
        crashes=crashes,
        restarts=restarts,
        availability=availability,
        mean_recovery_s=mean_recovery_s,
        preemptions=preemptions,
        restores=restores,
        checkpoints=checkpoints,
        checkpoint_overhead_s=checkpoint_overhead_s,
        restore_overhead_s=restore_overhead_s,
        wasted_steps=wasted_steps,
        wasted_s=wasted_s,
        step_failures=step_failures,
        retries=requests.retries,
        failed_requests=requests.failed_requests,
        exhausted_requests=requests.exhausted_requests,
        goodput_under_failure_rps=goodput_rps,
    )
