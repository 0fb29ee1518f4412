"""Deterministic fault injection and the recovery machinery to survive it.

Failures are ordinary simulation events drawn from seeded streams, so a
faulted run is exactly as reproducible as a healthy one: the same
:class:`FaultPlan` replayed against the same scenario produces the same
trace, byte for byte, whether points of a sweep run pooled or serially.

The package splits into:

* :mod:`repro.faults.plan` — declarative, frozen descriptions of what
  goes wrong and when (worker crashes, step failures, RPC drop windows,
  slowdown/straggler windows) plus :func:`build_plan` to draw a plan
  from a seed and an intensity;
* :mod:`repro.faults.injector` — arms a plan against a live
  :class:`~repro.core.middleware.Cluster` (a ``FreeRide`` or a
  multi-job pool), scheduling the events;
* :mod:`repro.faults.checkpoint` — the per-task checkpoint cost model
  behind the CHECKPOINTED/PREEMPTED/RESUMED recovery states;
* :mod:`repro.faults.retry` — exponential backoff with seeded jitter for
  serving dispatch and cluster submission.
"""

from __future__ import annotations

from repro.faults.checkpoint import CheckpointPolicy
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    DropWindow,
    FaultPlan,
    SlowdownWindow,
    WorkerCrash,
    build_plan,
)
from repro.faults.retry import RetryPolicy

__all__ = [
    "CheckpointPolicy",
    "DropWindow",
    "FaultInjector",
    "FaultPlan",
    "RetryPolicy",
    "SlowdownWindow",
    "WorkerCrash",
    "build_plan",
]
